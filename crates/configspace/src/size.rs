//! Polybench-style problem sizes.
//!
//! The paper's prompts (Figure 1) describe the `size` parameter as "a
//! relativistic measure of the size of data inputs to the loop nest" with
//! levels `S, SM, M, ML, L, XL` sorted smallest to largest, and state that
//! for size `SM`, `M=130` and `N=160`. Size is *not* tunable; the paper
//! evaluates two sizes (SM and XL) as distinct prediction tasks.
//!
//! The S/M/L/XL dimensions follow Polybench 4.2's syr2k dataset sizes; the
//! interpolated SM and ML levels come from the transfer-learning dataset the
//! paper reuses (Randall et al., ICS'23).

/// Problem-size level for the syr2k loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArraySize {
    /// Small (Polybench SMALL): M=60, N=80.
    S,
    /// Small-medium interpolation: M=130, N=160 (stated in Figure 1).
    SM,
    /// Medium (Polybench MEDIUM): M=200, N=240.
    M,
    /// Medium-large interpolation: M=600, N=720.
    ML,
    /// Large (Polybench LARGE): M=1000, N=1200.
    L,
    /// Extra-large (Polybench EXTRALARGE): M=2000, N=2600.
    XL,
}

impl ArraySize {
    /// All levels, smallest to largest.
    pub const ALL: [ArraySize; 6] = [
        ArraySize::S,
        ArraySize::SM,
        ArraySize::M,
        ArraySize::ML,
        ArraySize::L,
        ArraySize::XL,
    ];

    /// The two sizes evaluated in the paper.
    pub const PAPER_SIZES: [ArraySize; 2] = [ArraySize::SM, ArraySize::XL];

    /// `(M, N)` array dimensions for this level.
    pub fn dims(self) -> (usize, usize) {
        match self {
            ArraySize::S => (60, 80),
            ArraySize::SM => (130, 160),
            ArraySize::M => (200, 240),
            ArraySize::ML => (600, 720),
            ArraySize::L => (1000, 1200),
            ArraySize::XL => (2000, 2600),
        }
    }

    /// The `M` dimension (inner extent).
    pub fn m(self) -> usize {
        self.dims().0
    }

    /// The `N` dimension (outer extent).
    pub fn n(self) -> usize {
        self.dims().1
    }

    /// Short label as used in prompts ("SM", "XL", ...).
    pub fn label(self) -> &'static str {
        match self {
            ArraySize::S => "S",
            ArraySize::SM => "SM",
            ArraySize::M => "M",
            ArraySize::ML => "ML",
            ArraySize::L => "L",
            ArraySize::XL => "XL",
        }
    }

    /// Parse a label; inverse of [`ArraySize::label`].
    pub fn parse(s: &str) -> Option<ArraySize> {
        Self::ALL.into_iter().find(|a| a.label() == s)
    }

    /// Stable small integer tag for seed derivation.
    pub fn tag(self) -> u64 {
        match self {
            ArraySize::S => 0,
            ArraySize::SM => 1,
            ArraySize::M => 2,
            ArraySize::ML => 3,
            ArraySize::L => 4,
            ArraySize::XL => 5,
        }
    }
}

impl std::fmt::Display for ArraySize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sm_matches_figure_1() {
        assert_eq!(ArraySize::SM.dims(), (130, 160));
    }

    #[test]
    fn sizes_are_strictly_increasing() {
        for w in ArraySize::ALL.windows(2) {
            assert!(w[0].m() < w[1].m(), "{:?} vs {:?}", w[0], w[1]);
            assert!(w[0].n() < w[1].n());
            assert!(w[0] < w[1], "ordering should follow size");
        }
    }

    #[test]
    fn labels_roundtrip() {
        for a in ArraySize::ALL {
            assert_eq!(ArraySize::parse(a.label()), Some(a));
            assert_eq!(a.to_string(), a.label());
        }
        assert_eq!(ArraySize::parse("XXL"), None);
    }

    #[test]
    fn tags_are_unique() {
        let mut tags: Vec<u64> = ArraySize::ALL.iter().map(|a| a.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 6);
    }

    #[test]
    fn paper_sizes_are_sm_and_xl() {
        assert_eq!(ArraySize::PAPER_SIZES, [ArraySize::SM, ArraySize::XL]);
    }
}
