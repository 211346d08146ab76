//! Minimal `--flag value` argument parsing (no external dependency).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: String,
    flags: BTreeMap<String, String>,
}

/// Error from parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseArgsError {}

fn err(message: impl Into<String>) -> ParseArgsError {
    ParseArgsError { message: message.into() }
}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest are
    /// `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error on a missing subcommand, a flag without a value, a
    /// flag given twice, or a token that is not a flag.
    pub fn parse(argv: &[String]) -> Result<Args, ParseArgsError> {
        let mut it = argv.iter();
        let command = it.next().ok_or_else(|| err("missing subcommand"))?.clone();
        let mut flags = BTreeMap::new();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected a --flag, found '{token}'")))?;
            let value = it.next().ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(err(format!("flag --{key} given more than once")));
            }
        }
        Ok(Args { command, flags })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Rejects every flag outside the `accepted` groups.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown flags and the subcommand.
    pub fn reject_unknown(&self, accepted: &[&[&str]]) -> Result<(), ParseArgsError> {
        let unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|k| !accepted.iter().any(|group| group.contains(&k.as_str())))
            .map(|k| format!("--{k}"))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(err(format!("unknown flag {} for '{}'", unknown.join(", "), self.command)))
        }
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error if the flag is absent.
    pub fn required(&self, key: &str) -> Result<&str, ParseArgsError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| err(format!("invalid value '{v}' for --{key}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv("synth --input x.csv --rounds 50")).unwrap();
        assert_eq!(a.command(), "synth");
        assert_eq!(a.required("input").unwrap(), "x.csv");
        assert_eq!(a.parsed_or::<usize>("rounds", 0).unwrap(), 50);
        assert_eq!(a.parsed_or::<usize>("batch", 64).unwrap(), 64);
        assert!(a.optional("missing").is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&argv("")).is_err());
        assert!(Args::parse(&argv("cmd stray")).is_err());
        assert!(Args::parse(&argv("cmd --flag")).is_err());
        let a = Args::parse(&argv("cmd --n abc")).unwrap();
        assert!(a.parsed_or::<usize>("n", 1).is_err());
        assert!(a.required("other").is_err());
    }
}
