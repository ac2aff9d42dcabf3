//! Minimal argument parsing for the `dpr` CLI: a subcommand followed by
//! `--key value` options and positional arguments. No external parser
//! dependency — the surface is small and the error messages are ours.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: subcommand, positionals, options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` and bare `--flag` (value `"true"`).
    options: HashMap<String, String>,
    /// Every option name a lookup asked for, passed or not: what is left
    /// of `options` once the command has read its own is a mistake.
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the binary name).
    #[must_use]
    pub fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match raw.peek() {
                    Some(v) if !v.starts_with("--") => raw.next().unwrap(),
                    _ => "true".to_string(),
                };
                out.options.insert(key.to_string(), value);
            } else if out.command.is_empty() {
                out.command = a;
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// The raw value of `--key`, if passed.
    #[must_use]
    pub fn get_opt(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// Typed option lookup: `None` when the option was not passed, an error
    /// naming the option when its value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get_opt(key)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for --{key}")))
            .transpose()
    }

    /// [`Args::get_parsed`] with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// String option lookup.
    #[must_use]
    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get_opt(key).unwrap_or(default)
    }

    /// Whether a bare flag was passed; an error when it swallowed a value
    /// (`--net graph.txt`).
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.get_opt(key) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!("--{key} takes no value, got `{v}`")),
        }
    }

    /// Call once the command has looked up every option it has: an option
    /// that was passed and that nothing looked up is a typo, or a flag this
    /// command does not (or no longer does) have, and running on without it
    /// would report something the caller did not ask for.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self.options.keys().filter(|k| !read.contains(*k)).min() {
            None => Ok(()),
            Some(first) => Err(format!("`{}` has no option --{first}", self.command)),
        }
    }

    /// The `i`-th positional argument, or an error message naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required argument <{name}>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(ToString::to_string))
    }

    #[test]
    fn command_positional_options() {
        let a = parse(&["simulate", "graph.txt", "--k", "5", "--threaded"]);
        assert_eq!(a.command, "simulate");
        assert_eq!(a.positional(0, "graph").unwrap(), "graph.txt");
        assert_eq!(a.get("k", 0usize), Ok(5));
        assert_eq!(a.flag("threaded"), Ok(true));
        assert_eq!(a.flag("absent"), Ok(false));
        assert_eq!(a.reject_unread(), Ok(()));
    }

    #[test]
    fn unparsable_values_name_their_option() {
        let a = parse(&["simulate", "g", "--k", "abc", "--net", "oops"]);
        let err = a.get("k", 100usize).unwrap_err();
        assert!(err.contains("--k") && err.contains("abc"), "{err}");
        let err = a.flag("net").unwrap_err();
        assert!(err.contains("--net") && err.contains("oops"), "{err}");
        assert_eq!(a.get_parsed::<u32>("site"), Ok(None));
    }

    #[test]
    fn options_nobody_read_are_rejected_by_name() {
        let a = parse(&["simulate", "g", "--k", "8", "--no-ext-cache", "--zeta", "1"]);
        assert_eq!(a.get("k", 100usize), Ok(8));
        let err = a.reject_unread().unwrap_err();
        assert!(err.contains("--no-ext-cache") && err.contains("simulate"), "{err}");
        // Looking an option up is what makes it the command's own.
        assert_eq!(a.flag("no-ext-cache"), Ok(true));
        assert!(a.reject_unread().unwrap_err().contains("--zeta"));
    }

    #[test]
    fn missing_positional_reports_name() {
        let a = parse(&["stats"]);
        let err = a.positional(0, "graph").unwrap_err();
        assert!(err.contains("<graph>"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["plan"]);
        assert_eq!(a.get("rankers", 1000u64), Ok(1000));
        assert_eq!(a.get_str("strategy", "site"), "site");
    }

    #[test]
    fn empty_input() {
        let a = parse(&[]);
        assert!(a.command.is_empty());
    }
}
