//! Stream time: timestamps, durations, windows and epochs.
//!
//! Tuples carry an application timestamp `τ`. A per-relation [`Window`]
//! defines the maximal time difference between two tuples for them to be
//! considered joinable (Section I-A). A window belongs to a streamed
//! relation and to nothing else: the catalog holds one per relation, a
//! store runs the widest window of its relations, and queries carry none.
//! The adaptive processing scheme of Section VI divides time into
//! non-overlapping [`Epoch`]s; every store, rule set and statistics
//! sample is keyed by the epoch it belongs to.

use std::fmt;
use std::ops::{Add, Sub};

/// Logical stream time in milliseconds. Monotonically increasing per stream
/// source but not necessarily aligned across sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of stream time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Timestamp {
    /// Time zero.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Creates a timestamp from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Timestamp(s * 1000)
    }

    /// Milliseconds since time zero.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Creates a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1000)
    }

    /// Length in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in (floating point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A sliding time window attached to a streamed relation.
///
/// A stored tuple `s` is a join candidate for a probing tuple `r` iff
/// `r.τ - s.τ <= window.length` (and `s.τ <= r.τ`, i.e. the stored tuple
/// arrived earlier — the "1/j" factor of Equation 1 stems from this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Maximal age of a joinable tuple.
    pub length: Duration,
}

impl Window {
    /// Creates a window of the given length.
    pub fn new(length: Duration) -> Self {
        Window { length }
    }

    /// A window covering the full history (practically unbounded).
    pub fn unbounded() -> Self {
        Window {
            length: Duration(u64::MAX / 4),
        }
    }

    /// Window of `s` seconds.
    pub fn secs(s: u64) -> Self {
        Window::new(Duration::from_secs(s))
    }

    /// Returns `true` if a stored tuple with timestamp `stored` is still
    /// joinable with a probing tuple of timestamp `probe`.
    #[inline]
    pub fn contains(&self, probe: Timestamp, stored: Timestamp) -> bool {
        if stored > probe {
            // Later-arriving tuples are handled by the probe in the other
            // direction (symmetric processing), not by this window check.
            return false;
        }
        probe.since(stored) <= self.length
    }

    /// Earliest timestamp that is still joinable with a probe at `probe`.
    #[inline]
    pub fn horizon(&self, probe: Timestamp) -> Timestamp {
        probe - self.length
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::unbounded()
    }
}

/// An epoch identifier. Epochs are consecutive, non-overlapping slices of
/// stream time (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The first epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// The epoch after this one.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// The epoch before this one (saturating at zero).
    pub fn prev(self) -> Epoch {
        Epoch(self.0.saturating_sub(1))
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// Maps stream time to epochs.
///
/// The epoch duration is a system-wide configuration knob; the paper uses
/// one second in the adaptivity experiments (Section VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Length of every epoch.
    pub length: Duration,
}

impl EpochConfig {
    /// Creates a configuration with the given epoch length.
    /// Panics if the length is zero.
    pub fn new(length: Duration) -> Self {
        assert!(length.as_millis() > 0, "epoch length must be positive");
        EpochConfig { length }
    }

    /// Epoch that contains the given timestamp.
    pub fn epoch_of(&self, ts: Timestamp) -> Epoch {
        Epoch(ts.as_millis() / self.length.as_millis())
    }

    /// First timestamp belonging to the given epoch.
    pub fn start_of(&self, epoch: Epoch) -> Timestamp {
        Timestamp(epoch.0 * self.length.as_millis())
    }
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            length: Duration::from_secs(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
        assert_eq!((t + Duration::from_millis(500)).as_millis(), 2500);
        assert_eq!(
            (t - Duration::from_secs(3)).as_millis(),
            0,
            "subtraction saturates"
        );
        assert_eq!(t.since(Timestamp::from_millis(500)).as_millis(), 1500);
        assert_eq!(Timestamp::from_millis(1).since(t), Duration::ZERO);
    }

    #[test]
    fn window_contains_only_earlier_tuples_within_length() {
        let w = Window::secs(5);
        let probe = Timestamp::from_secs(10);
        assert!(w.contains(probe, Timestamp::from_secs(6)));
        assert!(
            w.contains(probe, Timestamp::from_secs(5)),
            "boundary is inclusive"
        );
        assert!(!w.contains(probe, Timestamp::from_secs(4)));
        assert!(
            !w.contains(probe, Timestamp::from_secs(11)),
            "later tuples excluded"
        );
        assert_eq!(w.horizon(probe), Timestamp::from_secs(5));
    }

    #[test]
    fn unbounded_window_accepts_everything_earlier() {
        let w = Window::unbounded();
        assert!(w.contains(Timestamp::from_secs(1_000_000), Timestamp::ZERO));
    }

    #[test]
    fn epoch_mapping_is_consistent() {
        let cfg = EpochConfig::new(Duration::from_secs(1));
        assert_eq!(cfg.epoch_of(Timestamp::from_millis(0)), Epoch(0));
        assert_eq!(cfg.epoch_of(Timestamp::from_millis(999)), Epoch(0));
        assert_eq!(cfg.epoch_of(Timestamp::from_millis(1000)), Epoch(1));
        assert_eq!(cfg.start_of(Epoch(3)), Timestamp::from_secs(3));
        assert_eq!(cfg.epoch_of(cfg.start_of(Epoch(17))), Epoch(17));
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_length_rejected() {
        let _ = EpochConfig::new(Duration::ZERO);
    }

    #[test]
    fn epoch_next_prev() {
        assert_eq!(Epoch(0).next(), Epoch(1));
        assert_eq!(Epoch(0).prev(), Epoch(0));
        assert_eq!(Epoch(5).prev(), Epoch(4));
    }
}
