// Fixture: LML0011 — a library file, linted as `crates/demo/src/fixture.rs`
// beside other in-memory files that do or do not name its functions.
// Never compiled.

/// Fires unless some other file names it.
pub fn only_here() -> u32 {
    helper() + 1
}

/// Fires too: the string below spells `only_here` but uses nothing.
pub fn spells_it() -> &'static str {
    "only_here"
}

/// Private: not a candidate.
fn helper() -> u32 {
    41
}

/// Restricted visibility is not `pub`: not a candidate.
pub(crate) fn crate_only() -> u32 {
    helper()
}

#[cfg(test)]
mod tests {
    /// Test code defines nothing the rule checks.
    pub fn test_helper() -> u32 {
        super::only_here()
    }
}
