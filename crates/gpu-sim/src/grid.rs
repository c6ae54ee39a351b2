//! Launch geometry: 3-dimensional grids and blocks.

use std::fmt;

/// A 3-dimensional extent or index, CUDA `dim3` style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// x extent (fastest-varying).
    pub x: u32,
    /// y extent.
    pub y: u32,
    /// z extent (slowest-varying).
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent.
    pub const fn xyz(x: u32, y: u32, z: u32) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// Total number of elements.
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Decompose a linear index into an (x, y, z) index within this extent.
    pub fn unflatten(self, linear: u32) -> Dim3 {
        let x = linear % self.x;
        let y = (linear / self.x) % self.y;
        let z = linear / (self.x * self.y);
        Dim3 { x, y, z }
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Dim3 {
        Dim3 { x, y, z }
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_conversions() {
        assert_eq!(Dim3::from(128).count(), 128);
        assert_eq!(Dim3::from((4, 5)).count(), 20);
        assert_eq!(Dim3::from((2, 3, 4)).count(), 24);
    }

    #[test]
    fn unflatten_roundtrip() {
        let d = Dim3::xyz(4, 3, 2);
        let mut seen = std::collections::HashSet::new();
        for linear in 0..d.count() as u32 {
            let idx = d.unflatten(linear);
            assert!(idx.x < 4 && idx.y < 3 && idx.z < 2);
            assert!(seen.insert((idx.x, idx.y, idx.z)));
        }
        assert_eq!(seen.len(), 24);
    }
}
