//! Process identifiers.

use std::fmt;

/// Identifier of a process in the distributed system.
///
/// Processes are numbered densely `0 .. n-1`; the number doubles as the index
/// of the process's component in every [`crate::VectorClock`] of the system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The component index of this process in a vector clock.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all process ids of an `n`-process system.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n as u32).map(ProcessId)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

impl From<usize> for ProcessId {
    fn from(v: usize) -> Self {
        ProcessId(u32::try_from(v).expect("process id exceeds u32 range"))
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        let p = ProcessId(7);
        assert_eq!(p.index(), 7);
        assert_eq!(ProcessId::from(7usize), p);
        assert_eq!(ProcessId::from(7u32), p);
    }

    #[test]
    fn all_enumerates_densely() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            ids,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn display_formats_with_p_prefix() {
        assert_eq!(ProcessId(3).to_string(), "P3");
        assert_eq!(format!("{:?}", ProcessId(3)), "P3");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(ProcessId(2) < ProcessId(10));
    }
}
