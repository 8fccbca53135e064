//! Token-tree builder: `()`/`[]`/`{}` nesting over the lexer's flat
//! token stream.
//!
//! The cross-file passes ([`crate::symbols`], [`crate::callgraph`],
//! [`crate::passes`]) constantly need "the extent of this group": the
//! body of a `fn`, the argument list of a call, the block of a `mod`.
//! Re-deriving that by depth-counting at every use site is both slow and
//! easy to get subtly wrong, so this module computes it once per file:
//! [`delim_matches`] maps every delimiter token index to its matching
//! partner. The symbol table stores the map per file, and it and the call
//! graph read `fn` bodies, parameter lists and call arguments from it.
//!
//! Angle brackets are deliberately **not** delimiters: `<`/`>` are
//! operators in Rust's token stream (`a < b`, `->`), so generics nesting
//! cannot be balanced at this level. The map is total: unbalanced input
//! (which rustc would reject anyway) leaves the unbalanced delimiters
//! unmatched instead of failing.

use crate::lexer::Tok;

/// The three bracket kinds that nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` … `)`
    Paren,
    /// `[` … `]`
    Bracket,
    /// `{` … `}`
    Brace,
}

impl Delim {
    /// Classifies an opening delimiter token.
    pub fn from_open(t: &Tok) -> Option<Delim> {
        match () {
            _ if t.is_punct("(") => Some(Delim::Paren),
            _ if t.is_punct("[") => Some(Delim::Bracket),
            _ if t.is_punct("{") => Some(Delim::Brace),
            _ => None,
        }
    }

    /// Classifies a closing delimiter token.
    pub fn from_close(t: &Tok) -> Option<Delim> {
        match () {
            _ if t.is_punct(")") => Some(Delim::Paren),
            _ if t.is_punct("]") => Some(Delim::Bracket),
            _ if t.is_punct("}") => Some(Delim::Brace),
            _ => None,
        }
    }
}

/// For every token index: the index of its matching partner delimiter
/// (`open → close` **and** `close → open`), or `None` for non-delimiter
/// or unmatched tokens.
pub fn delim_matches(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut matches = vec![None; toks.len()];
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if let Some(d) = Delim::from_open(t) {
            stack.push((d, k));
        } else if let Some(d) = Delim::from_close(t) {
            // Pop until a matching opener; non-matching openers stay
            // unmatched.
            if let Some(pos) = stack.iter().rposition(|&(sd, _)| sd == d) {
                let (_, open) = stack[pos];
                stack.truncate(pos);
                matches[open] = Some(k);
                matches[k] = Some(open);
            }
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn matches_pair_up_nested_groups() {
        let toks = lex("fn f(a: [u8; 4]) { g(x); }");
        let m = delim_matches(&toks);
        // Every matched pair points at each other symmetrically.
        for (k, partner) in m.iter().enumerate() {
            if let Some(p) = partner {
                assert_eq!(m[*p], Some(k), "asymmetric match at {k}");
            }
        }
        // fn body: `{` is matched to the final `}`.
        let open_brace = toks.iter().position(|t| t.is_punct("{")).unwrap();
        let close_brace = toks.iter().rposition(|t| t.is_punct("}")).unwrap();
        assert_eq!(m[open_brace], Some(close_brace));
    }

    #[test]
    fn unbalanced_input_degrades_instead_of_failing() {
        let toks = lex("f ( a } b");
        let m = delim_matches(&toks);
        let open = toks.iter().position(|t| t.is_punct("(")).unwrap();
        assert_eq!(m[open], None, "unclosed paren stays unmatched");
    }

    #[test]
    fn angle_brackets_are_not_delimiters() {
        let toks = lex("fn f() -> Vec<u8> { Vec::new() }");
        let m = delim_matches(&toks);
        for (k, t) in toks.iter().enumerate() {
            if t.is_punct("<") || t.is_punct(">") {
                assert_eq!(m[k], None);
            }
        }
    }
}
