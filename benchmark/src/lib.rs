//! The modules of the repository's wall-clock benchmark; `main.rs` is the
//! command line over them. See `benchmark/README.md`.

pub mod alloc;
pub mod build;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod live;
pub mod run;
pub mod serve;
pub mod span;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod verify;
pub mod workload;

/// `--name value` options and bare flags after the subcommand.
pub struct Options(pub Vec<String>);

impl Options {
    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read '{text}'")),
        }
    }
}
