//! Argument helpers shared by every subcommand.

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over the command line that knows how to complain about a
/// flag's missing or malformed value.
pub struct Flags<'a> {
    argv: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    pub fn new(argv: &'a [String]) -> Self {
        Flags { argv: argv.iter() }
    }

    /// The next flag or positional argument.
    pub fn next(&mut self) -> Option<&'a str> {
        self.argv.next().map(String::as_str)
    }

    /// The value following flag `name`.
    pub fn value(&mut self, name: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("missing value for {name}"))
    }

    /// The value following flag `name`, parsed.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(name)?.parse().map_err(|e| format!("bad {name}: {e}"))
    }

    /// The value following flag `name`, parsed as a count of at least
    /// one.
    pub fn at_least_one(&mut self, name: &str) -> Result<usize, String> {
        match self.parsed(name)? {
            0 => Err(format!("{name} must be >= 1")),
            n => Ok(n),
        }
    }

    /// The value following flag `name`, parsed as a finite number: NaN
    /// compares false with everything, so a bound set to it would
    /// silently constrain nothing.
    pub fn finite(&mut self, name: &str) -> Result<f64, String> {
        let value: f64 = self.parsed(name)?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("{name} {value} must be finite"))
        }
    }

    /// [`finite`](Self::finite) and above zero: a time or memory limit
    /// at or below zero admits no configuration at all.
    pub fn positive(&mut self, name: &str) -> Result<f64, String> {
        let value = self.finite(name)?;
        if value > 0.0 {
            Ok(value)
        } else {
            Err(format!("{name} {value} must be > 0"))
        }
    }

    /// [`finite`](Self::finite) and a percentage, in `[0, 100]`.
    pub fn percent(&mut self, name: &str) -> Result<f64, String> {
        let value = self.finite(name)?;
        if (0.0..=100.0).contains(&value) {
            Ok(value)
        } else {
            Err(format!("{name} {value} must be within [0, 100]"))
        }
    }
}

/// Writes `contents` to `path`, naming the path in any error.
pub fn write_file(path: &std::path::Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}
