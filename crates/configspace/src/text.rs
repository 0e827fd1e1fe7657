//! Natural-language serialization of configurations.
//!
//! The paper presents performance data "in a natural language format"
//! (Figure 1). The exact line shapes are:
//!
//! ```text
//! Hyperparameter configuration: size is SM, first_array_packed is True, ...
//! Performance: 0.0022155
//! ```
//!
//! This module produces the configuration line and the runtime value, and
//! parses the configuration line back (LLAMBO's candidate sampling reads
//! generated configurations with it).

use crate::param::{Config, ParamValue};
use crate::size::ArraySize;
use crate::space::ConfigSpace;

/// Number of decimal places used for runtime values in prompts.
///
/// The Figure 1 example shows `0.0022155` — seven decimal places — and the
/// token-position analysis of Table II depends on this width.
pub const RUNTIME_DECIMALS: usize = 7;

/// Format a runtime in seconds exactly as the prompts do.
pub fn format_runtime(secs: f64) -> String {
    format!("{secs:.RUNTIME_DECIMALS$}")
}

/// Value rendering styles for prompts. The paper's prompts use plain
/// decimals; §V-B hypothesizes that scientific notation, while a "stable
/// output format", "often makes the prefixes of values *less* similar,
/// which our results indicate may *harm* the model's ability to generate
/// useful answers" — the `format_study` binary tests exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueFormat {
    /// Plain decimal with [`RUNTIME_DECIMALS`] places (Figure 1).
    #[default]
    Decimal,
    /// Normalized scientific notation, `m.mmmmmmme-x` with a 7-decimal
    /// mantissa in `[1, 10)`.
    Scientific,
}

/// Format a runtime under a [`ValueFormat`].
pub fn format_value(secs: f64, format: ValueFormat) -> String {
    match format {
        ValueFormat::Decimal => format_runtime(secs),
        ValueFormat::Scientific => {
            assert!(secs > 0.0, "scientific format requires a positive value");
            let exp = secs.log10().floor() as i32;
            let mantissa = secs / 10f64.powi(exp);
            format!("{mantissa:.RUNTIME_DECIMALS$}e{exp}")
        }
    }
}

/// The `Hyperparameter configuration: ...` line for a configuration.
///
/// The size is listed first and is not tunable; tunables follow in space
/// declaration order, each as `name is value`.
pub fn nl_config_line(space: &ConfigSpace, config: &Config, size: ArraySize) -> String {
    let mut parts = Vec::with_capacity(space.num_params() + 1);
    parts.push(format!("size is {}", size.label()));
    for (i, p) in space.params().iter().enumerate() {
        parts.push(format!("{} is {}", p.name(), space.value(config, i)));
    }
    format!("Hyperparameter configuration: {}", parts.join(", "))
}

/// Parse one `name is value` fragment against a parameter's domain.
fn parse_value(space: &ConfigSpace, name: &str, raw: &str) -> Option<(usize, u16)> {
    let i = space.param_index(name)?;
    let p = &space.params()[i];
    let v = match raw {
        "True" => ParamValue::Bool(true),
        "False" => ParamValue::Bool(false),
        other => {
            if let Ok(n) = other.parse::<i64>() {
                ParamValue::Int(n)
            } else {
                ParamValue::Cat(other.to_string())
            }
        }
    };
    p.index_of(&v).map(|c| (i, c as u16))
}

/// Parse a `Hyperparameter configuration:` line back into a size and
/// configuration. Whitespace around commas is tolerated (the paper's own
/// Figure 1 mixes `, ` and `,`). Returns `None` on any missing or
/// out-of-domain component.
pub fn parse_nl_config(space: &ConfigSpace, line: &str) -> Option<(ArraySize, Config)> {
    let rest = line.trim().strip_prefix("Hyperparameter configuration:")?;
    let mut size: Option<ArraySize> = None;
    let mut choices: Vec<Option<u16>> = vec![None; space.num_params()];
    for frag in rest.split(',') {
        let frag = frag.trim();
        if frag.is_empty() {
            continue;
        }
        let (name, value) = frag.split_once(" is ")?;
        let (name, value) = (name.trim(), value.trim());
        if name == "size" {
            size = ArraySize::parse(value);
            size?;
        } else {
            let (i, c) = parse_value(space, name, value)?;
            choices[i] = Some(c);
        }
    }
    let choices: Option<Vec<u16>> = choices.into_iter().collect();
    Some((size?, Config::from_choices(choices?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syr2k::{syr2k_space, Syr2kConfig};

    #[test]
    fn runtime_format_matches_figure1() {
        assert_eq!(format_runtime(0.0022155), "0.0022155");
        assert_eq!(format_runtime(2.5), "2.5000000");
    }

    #[test]
    fn figure1_line_is_reproduced_exactly() {
        let space = syr2k_space();
        let cfg = Syr2kConfig {
            pack_a: true,
            pack_b: false,
            interchange: false,
            tile_outer: 80,
            tile_middle: 64,
            tile_inner: 100,
        }
        .to_config(&space);
        let line = nl_config_line(&space, &cfg, ArraySize::SM);
        assert_eq!(
            line,
            "Hyperparameter configuration: size is SM, first_array_packed is True, \
             second_array_packed is False, interchange_first_two_loops is False, \
             outer_loop_tiling_factor is 80, middle_loop_tiling_factor is 64, \
             inner_loop_tiling_factor is 100"
        );
    }

    #[test]
    fn nl_roundtrip_everywhere() {
        let space = syr2k_space();
        for i in (0..space.cardinality()).step_by(131) {
            let cfg = space.config_at(i);
            for size in ArraySize::PAPER_SIZES {
                let line = nl_config_line(&space, &cfg, size);
                let (s2, c2) = parse_nl_config(&space, &line).expect("parse back");
                assert_eq!(s2, size);
                assert_eq!(c2, cfg);
            }
        }
    }

    #[test]
    fn parse_tolerates_sloppy_spacing() {
        // Figure 1's own query line omits spaces after some commas.
        let space = syr2k_space();
        let line = "Hyperparameter configuration: size is SM, first_array_packed is False, \
                    second_array_packed is True, interchange_first_two_loops is False,\
                    outer_loop_tiling_factor is 128,middle_loop_tiling_factor is 80, \
                    inner_loop_tiling_factor is 80";
        let (size, cfg) = parse_nl_config(&space, line).expect("should parse");
        assert_eq!(size, ArraySize::SM);
        let typed = Syr2kConfig::from_config(&space, &cfg);
        assert!(!typed.pack_a && typed.pack_b && !typed.interchange);
        assert_eq!(typed.tiles(), (128, 80, 80));
    }

    #[test]
    fn parse_rejects_bad_lines() {
        let space = syr2k_space();
        assert_eq!(parse_nl_config(&space, "not a config"), None);
        assert_eq!(
            parse_nl_config(&space, "Hyperparameter configuration: size is QQ"),
            None,
            "unknown size"
        );
        assert_eq!(
            parse_nl_config(
                &space,
                "Hyperparameter configuration: size is SM, first_array_packed is True"
            ),
            None,
            "missing parameters"
        );
        let line = "Hyperparameter configuration: size is SM, first_array_packed is True, \
                    second_array_packed is False, interchange_first_two_loops is False, \
                    outer_loop_tiling_factor is 81, middle_loop_tiling_factor is 64, \
                    inner_loop_tiling_factor is 100";
        assert_eq!(
            parse_nl_config(&space, line),
            None,
            "81 is not a candidate tile"
        );
    }
}
