//! Strict flag parsing against a command's usage line.

use std::collections::HashMap;

/// Parsed command-line: positionals, and `--key value` options with each
/// switch present as an option with an empty value.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Parse everything after the subcommand against `usage`, the command's
    /// usage line, which declares what it accepts: each `<name>` is a
    /// positional, `--key VALUE` a flag that takes a value, and `[--key]` a
    /// switch. Brackets mark what is optional.
    ///
    /// # Errors
    ///
    /// Returns a message naming the token for an undeclared flag, a flag
    /// without its value, or a positional beyond those declared.
    pub fn parse(argv: &[String], usage: &str) -> Result<Args, String> {
        let (mut positionals, mut values, mut switches) = (0, Vec::new(), Vec::new());
        for word in usage.split_whitespace().map(|w| w.trim_start_matches('[')) {
            if word.starts_with('<') {
                positionals += 1;
            } else if let Some(key) = word.strip_prefix("--") {
                match key.strip_suffix(']') {
                    Some(switch) => switches.push(switch),
                    None => values.push(key),
                }
            }
        }
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = if switches.contains(&key) {
                    String::new()
                } else if !values.contains(&key) {
                    return Err(format!("unknown flag `{a}`"));
                } else {
                    match it.next() {
                        Some(v) if !v.starts_with("--") => v.clone(),
                        _ => return Err(format!("flag `{a}` requires a value")),
                    }
                };
                args.options.insert(key.to_string(), value);
            } else if args.positional.len() < positionals {
                args.positional.push(a.clone());
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(args)
    }

    /// Whether a valueless `--switch` was present.
    pub fn switch(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An option read by `parse`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when `parse` rejects the value.
    pub fn get_with<T>(
        &self,
        key: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| format!("bad value for --{key}: `{v}`")),
        }
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get_with(key, default, |v| v.parse().ok())
    }

    /// A u32 option accepting `0x` hex, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn get_u32_or(&self, key: &str, default: u32) -> Result<u32, String> {
        self.get_with(key, default, |v| match v.strip_prefix("0x") {
            Some(hex) => u32::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "<prog> [--seed S] [--mode exact|approx] [--mask HEX] [--no-checkpoint]";

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>(), USAGE)
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["354.cg", "--seed", "7", "--mode", "approx"]).expect("parse");
        assert_eq!(a.positional(0), Some("354.cg"));
        assert_eq!(a.get("mode"), Some("approx"));
        assert_eq!(a.get_or("seed", 0u64).expect("seed"), 7);
        assert_eq!(a.get_or("injections", 100usize).expect("default"), 100);
    }

    #[test]
    fn hex_values() {
        let a = parse(&["--mask", "0x8000"]).expect("parse");
        assert_eq!(a.get_u32_or("mask", 0).expect("mask"), 0x8000);
        let a = parse(&["--mask", "255"]).expect("parse");
        assert_eq!(a.get_u32_or("mask", 0).expect("mask"), 255);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["prog", "--no-checkpoint", "--seed", "7"]).expect("parse");
        assert!(a.switch("no-checkpoint"));
        assert_eq!(a.get_or("seed", 0u64).expect("seed"), 7);
        assert!(!parse(&["prog"]).expect("parse").switch("no-checkpoint"));
    }

    #[test]
    fn bad_parse_names_flag() {
        let a = parse(&["--seed", "banana"]).expect("parse");
        let err = a.get_or("seed", 0u64).unwrap_err();
        assert!(err.contains("--seed"));
    }

    #[test]
    fn undeclared_tokens_are_rejected_by_name() {
        for (argv, token) in [
            (&["prog", "--frobnicate", "1"][..], "`--frobnicate`"),
            (&["prog", "--no-checkpoints", "--seed", "7"], "`--no-checkpoints`"),
            (&["prog", "extra"], "`extra`"),
            (&["prog", "--seed", "--mode", "exact"], "`--seed`"),
            (&["prog", "--mode"], "`--mode`"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(token), "{argv:?}: {err}");
        }
    }
}
