//! The one command-line parser behind every `svm-bench` command.
//!
//! Cursor style: a command asks for each option it honours ([`Args::flag`],
//! [`Args::value`], [`Args::list`]), each call consuming what it matched
//! (a repeated option's last occurrence wins), and whatever is left over is
//! an error. Ask for valued options before bare flags, so the word after a
//! valued option is always taken as its value. [`parse`] turns any error
//! into a one-line message naming the offending option, the command's
//! usage line, and exit status 2. A value that parses but that its option
//! cannot mean ([`Args::value_if`]) is the same error, raised here and not as
//! a panic or a hang inside the run.

use std::str::FromStr;

/// The not-yet-consumed command-line words.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wrap an argument list (program and command name already stripped).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect(),
        }
    }

    /// Consume every bare `name`; `true` if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() < before
    }

    /// Consume every `name WORD` pair, unparsed; the last one wins.
    fn raw(&mut self, name: &str) -> Result<Option<String>, String> {
        let mut last = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            if i == self.rest.len() {
                return Err(format!("{name} needs a value"));
            }
            last = Some(self.rest.remove(i));
        }
        Ok(last)
    }

    /// Consume `name VALUE`; `None` if `name` was not given.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value_if(name, |_| true)
    }

    /// [`Args::value`] that also refuses a value `ok` does not accept.
    pub fn value_if<T: FromStr>(
        &mut self,
        name: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        let raw = self.raw(name)?;
        raw.map(|word| parse_word(name, &word, &ok)).transpose()
    }

    /// Consume `name a,b,c`; `None` if `name` was not given.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Result<Option<Vec<T>>, String> {
        self.list_if(name, |_| true)
    }

    /// [`Args::list`] that also refuses a value `ok` does not accept.
    pub fn list_if<T: FromStr>(
        &mut self,
        name: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<Vec<T>>, String> {
        let raw = self.raw(name)?;
        raw.map(|words| words.split(',').map(|w| parse_word(name, w, &ok)).collect())
            .transpose()
    }

    /// Every option has been asked for: anything left is unknown.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            Some(word) => Err(format!("unknown option {word}")),
            None => Ok(()),
        }
    }
}

fn parse_word<T: FromStr>(name: &str, word: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
    let value = word
        .parse()
        .map_err(|_| format!("{name} cannot parse '{word}'"))?;
    ok(&value)
        .then_some(value)
        .ok_or_else(|| format!("{name} {word} is out of range"))
}

/// `--scale`: a finite factor above zero.
pub fn scale_ok(scale: &f64) -> bool {
    scale.is_finite() && *scale > 0.0
}

/// `--nodes`: at least `min`, at most the 65 535 a `NodeId` can name.
pub fn nodes_ok(min: usize) -> impl Fn(&usize) -> bool {
    move |n| (min..=usize::from(u16::MAX)).contains(n)
}

/// Build a command's options from the words `main` handed it. `build`
/// pulls each option the command honours out of the [`Args`]; a missing or
/// unparsable value, or any leftover word, prints
/// `error: <what>; usage: svm-bench <usage>` and exits with status 2.
pub fn parse<T>(
    mut args: Args,
    usage: &str,
    build: impl FnOnce(&mut Args) -> Result<T, String>,
) -> T {
    match build(&mut args).and_then(|opts| args.finish().map(|()| opts)) {
        Ok(opts) => opts,
        Err(what) => {
            eprintln!("error: {what}; usage: svm-bench {usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::new(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn flags_values_and_lists_in_any_order() {
        let mut a = args(&["--nodes", "4,64", "--fast", "--scale", "0.5"]);
        assert_eq!(a.value::<f64>("--scale"), Ok(Some(0.5)));
        assert!(a.flag("--fast"));
        assert!(!a.flag("--paper"));
        assert_eq!(a.list::<usize>("--nodes"), Ok(Some(vec![4, 64])));
        assert_eq!(a.value::<u64>("--seed"), Ok(None));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let mut a = args(&["--fast", "--scale"]);
        assert_eq!(
            a.value::<f64>("--scale"),
            Err("--scale needs a value".to_string())
        );
    }

    #[test]
    fn an_unparsable_value_names_the_flag_and_the_word() {
        let mut a = args(&["--nodes", "four"]);
        assert_eq!(
            a.value::<usize>("--nodes"),
            Err("--nodes cannot parse 'four'".to_string())
        );
        let mut a = args(&["--seeds", "1,x,3"]);
        assert_eq!(
            a.list::<u64>("--seeds"),
            Err("--seeds cannot parse 'x'".to_string())
        );
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_finish_and_a_repeat_is_last_wins() {
        let mut a = args(&["--fats"]);
        assert!(!a.flag("--fast"));
        assert_eq!(a.finish(), Err("unknown option --fats".to_string()));
        let mut a = args(&["--seed", "1", "--fast", "--seed", "2", "--fast"]);
        assert_eq!(a.value::<u64>("--seed"), Ok(Some(2)));
        assert!(a.flag("--fast"));
        assert_eq!(a.finish(), Ok(()));
    }
}
