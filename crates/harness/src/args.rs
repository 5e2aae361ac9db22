//! The shared `--key value` flag parser.
//!
//! Every `kya` subcommand and every experiment sweep parses flags the
//! same way: `--key value` pairs (a `--key` followed by another flag or
//! nothing is boolean `true`), with unknown flags rejected loudly
//! against the subcommand's valid set. This module is that single
//! implementation; it used to be copy-pasted between the CLI and the
//! bench drivers.

use crate::spec::SpecError;
use std::collections::BTreeMap;

/// Parsed `--key value` flags plus any bare (non-flag) arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    bare: Vec<String>,
}

impl Args {
    /// Parse an argument list (without the program / subcommand name).
    pub fn parse(argv: &[String]) -> Args {
        let mut flags = BTreeMap::new();
        let mut bare = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                // Boolean flags (no value) are stored as "true".
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                bare.push(a.clone());
                i += 1;
            }
        }
        Args { flags, bare }
    }

    /// Bare (non-flag) arguments, in order.
    pub fn bare(&self) -> &[String] {
        &self.bare
    }

    /// The value of a required flag.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the missing flag.
    pub fn required(&self, key: &str) -> Result<&str, SpecError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| SpecError(format!("missing required flag --{key}")))
    }

    /// The value of an optional flag, if present.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional `f64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the value is not a number.
    pub fn f64_flag(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        self.optional(key).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| SpecError(format!("--{key} must be a number, got `{s}`")))
        })
    }

    /// An optional `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the value is not a number.
    pub fn u64_flag(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        self.optional(key).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| SpecError(format!("--{key} must be a number, got `{s}`")))
        })
    }

    /// An optional `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the value is not a number.
    pub fn usize_flag(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        self.optional(key).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| SpecError(format!("--{key} must be a number, got `{s}`")))
        })
    }

    /// An optional comma-separated `usize` list flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if any entry is not a number.
    pub fn usize_list_flag(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, SpecError> {
        match self.optional(key) {
            None => Ok(default.to_vec()),
            Some(s) => s
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|item| {
                    item.parse().map_err(|_| {
                        SpecError(format!("--{key} entries must be numbers, got `{item}`"))
                    })
                })
                .collect(),
        }
    }

    /// Whether a boolean flag is set.
    pub fn is_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Reject flags the subcommand does not understand: a misspelled
    /// `--vaules` must fail loudly instead of silently running with the
    /// required flag reported missing (or worse, a default).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the unknown flag and the valid set.
    pub fn reject_unknown(&self, cmd: &str, valid: &[&str]) -> Result<(), SpecError> {
        for key in self.flags.keys() {
            if !valid.contains(&key.as_str()) {
                let valid = if valid.is_empty() {
                    "it takes none".to_string()
                } else {
                    format!(
                        "valid flags: {}",
                        valid
                            .iter()
                            .map(|f| format!("--{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                return Err(SpecError(format!(
                    "unknown flag --{key} for `{cmd}` ({valid})"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--graph", "ring:5", "--n", "--values", "1,2"]);
        assert_eq!(a.required("graph").unwrap(), "ring:5");
        assert_eq!(a.optional("n"), Some("true"));
        assert_eq!(a.optional("values"), Some("1,2"));
        assert!(a.required("missing").is_err());
        assert!(a.bare().is_empty());
    }

    #[test]
    fn bare_arguments_detected() {
        let a = args(&["oops", "--graph", "ring:3"]);
        assert_eq!(a.bare(), &["oops".to_string()]);
    }

    #[test]
    fn typed_flags() {
        let a = args(&["--drop", "0.25", "--rounds", "40", "--sizes", "4,8,12"]);
        assert_eq!(a.f64_flag("drop", 0.0).unwrap(), 0.25);
        assert_eq!(a.f64_flag("dup", 0.5).unwrap(), 0.5);
        assert_eq!(a.u64_flag("rounds", 1).unwrap(), 40);
        assert_eq!(a.usize_list_flag("sizes", &[1]).unwrap(), vec![4, 8, 12]);
        assert_eq!(a.usize_list_flag("other", &[1, 2]).unwrap(), vec![1, 2]);
        assert!(a.f64_flag("rounds", 0.0).is_ok());
        let bad = args(&["--rounds", "many"]);
        assert!(bad.u64_flag("rounds", 1).is_err());
        assert!(bad.usize_list_flag("rounds", &[]).is_err());
    }

    #[test]
    fn unknown_flags_rejected_with_valid_set() {
        let a = args(&["--graph", "ring:3", "--vaules", "1,2,3"]);
        let err = a
            .reject_unknown("kya minbase", &["graph", "values"])
            .unwrap_err();
        assert!(err.0.contains("--vaules"), "{err}");
        assert!(
            err.0.contains("--graph, --values"),
            "names the valid set: {err}"
        );
        let a = args(&["--anything", "x"]);
        let err = a.reject_unknown("kya tables", &[]).unwrap_err();
        assert!(err.0.contains("takes none"), "{err}");
        let a = args(&["--graph", "ring:3", "--values", "1,2,3"]);
        assert!(a
            .reject_unknown("kya minbase", &["graph", "values"])
            .is_ok());
    }
}
