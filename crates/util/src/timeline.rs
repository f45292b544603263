//! Virtual-time primitives shared by the discrete-event simulators.
//!
//! Simulated components never read the wall clock: the cluster simulator and
//! the HopsFS load generator advance a [`SimTime`] explicitly. Keeping the
//! type here (rather than in `ee-cluster`) lets `ee-hopsfs` and the
//! application pipelines talk about virtual time without depending on the
//! whole cluster simulator.
//!
//! We also model *calendar* time for the Earth-observation side: scenes have
//! sensing dates, crop calendars are driven by day-of-year, and the water
//! balance runs daily steps. [`Date`] is a minimal proleptic-Gregorian date.

/// A point in simulated time, in seconds since simulation start.
///
/// Stored as integer nanoseconds to keep event ordering exact (floating
/// point would make event order depend on accumulated rounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// From seconds (fractional allowed; must be non-negative and finite).
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime seconds: {secs}");
        Self((secs * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Advance by a duration.
    pub fn advance(self, d: SimDuration) -> Self {
        Self(self.0 + d.0)
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From seconds (fractional allowed; must be non-negative and finite).
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration seconds: {secs}"
        );
        Self((secs * 1e9).round() as u64)
    }

    /// From milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// As fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        SimDuration(self.0 * rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

/// A calendar date (proleptic Gregorian), used for scene sensing times and
/// the daily water-balance loop. Only the operations the pipelines need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    /// Day of year, 1-based (1..=365/366).
    ordinal: u16,
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_year(year: i32) -> u16 {
    if is_leap(year) {
        366
    } else {
        365
    }
}

const MONTH_LENGTHS: [u16; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

impl Date {
    /// Build from year/month/day. Returns `None` for invalid dates.
    pub fn new(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) {
            return None;
        }
        let mut len = MONTH_LENGTHS[(month - 1) as usize];
        if month == 2 && is_leap(year) {
            len = 29;
        }
        if day == 0 || day as u16 > len {
            return None;
        }
        let mut ordinal = day as u16;
        for (m, &len) in MONTH_LENGTHS.iter().enumerate().take((month - 1) as usize) {
            ordinal += len;
            if m == 1 && is_leap(year) {
                ordinal += 1;
            }
        }
        Some(Self { year, ordinal })
    }

    /// Build from a 1-based day-of-year. Returns `None` if out of range.
    pub fn from_ordinal(year: i32, ordinal: u16) -> Option<Self> {
        if ordinal == 0 || ordinal > days_in_year(year) {
            None
        } else {
            Some(Self { year, ordinal })
        }
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year
    }

    /// 1-based day of year.
    pub fn ordinal(self) -> u16 {
        self.ordinal
    }

    /// (month, day) components.
    pub fn month_day(self) -> (u32, u32) {
        let mut remaining = self.ordinal;
        for (m, &len0) in MONTH_LENGTHS.iter().enumerate() {
            let mut len = len0;
            if m == 1 && is_leap(self.year) {
                len += 1;
            }
            if remaining <= len {
                return (m as u32 + 1, remaining as u32);
            }
            remaining -= len;
        }
        unreachable!("ordinal validated at construction")
    }

    /// The next calendar day.
    pub fn succ(self) -> Self {
        if self.ordinal < days_in_year(self.year) {
            Self {
                year: self.year,
                ordinal: self.ordinal + 1,
            }
        } else {
            Self {
                year: self.year + 1,
                ordinal: 1,
            }
        }
    }

    /// Add `n` days.
    pub fn plus_days(self, n: u32) -> Self {
        let mut d = self;
        for _ in 0..n {
            d = d.succ();
        }
        d
    }

    /// Signed number of days from `other` to `self`.
    pub fn days_since(self, other: Date) -> i64 {
        fn abs_days(d: Date) -> i64 {
            let mut total: i64 = 0;
            // Sum whole years from year 0 (fine for the ranges we use).
            if d.year >= 0 {
                for y in 0..d.year {
                    total += days_in_year(y) as i64;
                }
            } else {
                for y in d.year..0 {
                    total -= days_in_year(y) as i64;
                }
            }
            total + d.ordinal as i64
        }
        abs_days(self) - abs_days(other)
    }

    /// ISO-8601 `YYYY-MM-DD` string.
    pub fn iso(self) -> String {
        let (m, d) = self.month_day();
        format!("{:04}-{:02}-{:02}", self.year, m, d)
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.iso())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_ordering_and_math() {
        let t0 = SimTime::ZERO;
        let t1 = t0.advance(SimDuration::from_millis(1.5));
        assert!(t1 > t0);
        assert_eq!(t1.since(t0).as_millis(), 1.5);
        assert_eq!(t0.since(t1), SimDuration::ZERO, "saturates");
        assert_eq!(SimTime::from_secs(2.0).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(0.25) * 4;
        assert_eq!(d.as_millis(), 1.0);
        let total: SimDuration = (0..10).map(|_| SimDuration::from_secs(0.1)).sum();
        assert!((total.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn simtime_rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(2017, 1, 1), (2017, 12, 31), (2016, 2, 29), (2019, 7, 15)] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(date.month_day(), (m, d));
            let again = Date::from_ordinal(y, date.ordinal()).unwrap();
            assert_eq!(again, date);
        }
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::new(2017, 2, 29).is_none(), "2017 not a leap year");
        assert!(Date::new(2016, 2, 29).is_some());
        assert!(Date::new(2017, 13, 1).is_none());
        assert!(Date::new(2017, 0, 1).is_none());
        assert!(Date::new(2017, 4, 31).is_none());
        assert!(Date::from_ordinal(2017, 366).is_none());
        assert!(Date::from_ordinal(2016, 366).is_some());
    }

    #[test]
    fn date_succession_across_year() {
        let d = Date::new(2017, 12, 31).unwrap();
        let next = d.succ();
        assert_eq!(next, Date::new(2018, 1, 1).unwrap());
        assert_eq!(next.days_since(d), 1);
    }

    #[test]
    fn days_since_known_spans() {
        let a = Date::new(2017, 1, 1).unwrap();
        let b = Date::new(2018, 1, 1).unwrap();
        assert_eq!(b.days_since(a), 365);
        let c = Date::new(2016, 1, 1).unwrap();
        assert_eq!(a.days_since(c), 366, "2016 is a leap year");
        assert_eq!(c.days_since(a), -366);
    }

    #[test]
    fn plus_days_matches_days_since() {
        let a = Date::new(2017, 6, 20).unwrap();
        let b = a.plus_days(200);
        assert_eq!(b.days_since(a), 200);
    }

    #[test]
    fn iso_format() {
        assert_eq!(Date::new(2017, 3, 5).unwrap().iso(), "2017-03-05");
    }
}
