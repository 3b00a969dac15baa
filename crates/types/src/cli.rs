//! The flag reader every workspace binary parses its command line with.
//!
//! Flags are `--flag` or `--flag VALUE` (no `--flag=value`, no bundling, no
//! generated help). Anything malformed is a [`UsageError`] naming the flag,
//! and [`UsageError::exit`] prints `{bin}: {error}` plus the binary's usage
//! line and exits 2, so a usage error never shares an exit code with a run
//! that failed or found something.

use std::fmt;
use std::str::FromStr;

/// A malformed command line: an unknown flag, a missing value, a value that
/// does not parse, or missing or conflicting inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl UsageError {
    /// A usage error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        UsageError(message.into())
    }

    /// `token` is not a flag this binary accepts.
    #[must_use]
    pub fn unknown(token: &str) -> Self {
        UsageError::new(format!("unknown flag `{token}`"))
    }

    /// Prints `{bin}: {self}` and `usage` to stderr and exits with status 2.
    pub fn exit(&self, bin: &str, usage: &str) -> ! {
        eprintln!("{bin}: {self}\n{usage}");
        std::process::exit(2)
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The arguments after the program name, read token by token: the binary
/// matches each flag and takes its value with [`Args::value`],
/// [`Args::parse`] or [`Args::parse_with`].
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// Reads the given tokens (everything after the program name).
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        let tokens: Vec<String> = args.into_iter().map(Into::into).collect();
        Args(tokens.into_iter())
    }

    /// Reads this process's arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// The value of `flag`: the next token, whatever it is.
    ///
    /// # Errors
    ///
    /// `{flag} needs a value` when the arguments have run out.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        let missing = || UsageError::new(format!("{flag} needs a value"));
        self.0.next().ok_or_else(missing)
    }

    /// The value of `flag`, parsed with [`FromStr`].
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`].
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        self.parse_with(flag, |v| v.parse().ok())
    }

    /// The value of `flag`, converted by `convert` (a `from_name`, say).
    ///
    /// # Errors
    ///
    /// As [`Args::value`], or `invalid value `{v}` for {flag}` when
    /// `convert` returns `None`.
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, UsageError> {
        let v = self.value(flag)?;
        convert(&v).ok_or_else(|| UsageError::new(format!("invalid value `{v}` for {flag}")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// `token` as a positional argument. Binaries try their flags first, so a
/// leftover token starting with `-` is an unknown flag (`-` alone, for
/// stdin, is positional).
///
/// # Errors
///
/// [`UsageError::unknown`] for such a token.
pub fn positional(token: String) -> Result<String, UsageError> {
    if token.starts_with('-') && token != "-" {
        return Err(UsageError::unknown(&token));
    }
    Ok(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_flag_and_the_value() {
        let mut args = Args::new(["--cores", "x", "--lines"]);
        assert_eq!(args.next().as_deref(), Some("--cores"));
        let err = args.parse::<usize>("--cores").unwrap_err();
        assert_eq!(err.to_string(), "invalid value `x` for --cores");
        assert_eq!(args.next().as_deref(), Some("--lines"));
        let err = args.value("--lines").unwrap_err();
        assert_eq!(err.to_string(), "--lines needs a value");
        assert_eq!(UsageError::unknown("--x").to_string(), "unknown flag `--x`");
    }

    #[test]
    fn values_are_taken_verbatim_and_converted() {
        let mut args = Args::new(["--json", "--quick", "7", "b"]);
        assert_eq!(args.value("--out").unwrap(), "--json");
        assert_eq!(args.value("--name").unwrap(), "--quick");
        assert_eq!(args.parse::<u8>("--n").unwrap(), 7);
        let pick = |v: &str| (v == "b").then_some('b');
        assert_eq!(args.parse_with("--pick", pick).unwrap(), 'b');
        assert!(args.next().is_none());
    }

    #[test]
    fn positionals_reject_flags_but_accept_stdin() {
        assert_eq!(positional("a.asm".into()).unwrap(), "a.asm");
        assert_eq!(positional("-".into()).unwrap(), "-");
        for flag in ["--trce", "-h"] {
            let err = positional(flag.into()).unwrap_err();
            assert_eq!(err, UsageError::unknown(flag));
        }
    }
}
