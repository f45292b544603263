//! Byte-size arithmetic and formatting for the experiment reports.

/// A byte count with human-readable formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: Self) -> Self {
        ByteSize(self.0 + rhs.0)
    }
}

impl std::iter::Sum for ByteSize {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl std::fmt::Display for ByteSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
        let mut value = self.0 as f64;
        let mut unit = 0;
        while value >= 1024.0 && unit < UNITS.len() - 1 {
            value /= 1024.0;
            unit += 1;
        }
        if unit == 0 {
            write!(f, "{} B", self.0)
        } else {
            write!(f, "{:.2} {}", value, UNITS[unit])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ByteSize(0).to_string(), "0 B");
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize(1024).to_string(), "1.00 KiB");
        assert_eq!(ByteSize(5 << 20).to_string(), "5.00 MiB");
        assert_eq!(ByteSize(3 << 30).to_string(), "3.00 GiB");
        assert_eq!(ByteSize(1536).to_string(), "1.50 KiB");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ByteSize(1024) + ByteSize(24), ByteSize(1048));
        let total: ByteSize = [ByteSize(1), ByteSize(2), ByteSize(3)].into_iter().sum();
        assert_eq!(total, ByteSize(6));
    }
}
