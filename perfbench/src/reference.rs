//! The checked-in verdict reference and the per-site comparison against it.
//!
//! One row per (workload, variant, program): a digest of the selected sites'
//! parameters, the outcome tallies, and one letter per site holding its
//! verdict in selection order. A repetition counts every site whose letter
//! differs; a changed site digest (different sites were selected) counts
//! every site of the program.

use crate::digest::Fnv;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One letter per results-log outcome code; a potential DUE is lowercase.
pub fn verdict_letter(code: &str) -> char {
    let (base, pdue) = match code.strip_suffix("+pdue") {
        Some(b) => (b, true),
        None => (code, false),
    };
    let c = match base {
        "MASKED" => 'M',
        "SDC:stdout" => 'S',
        "SDC:file" => 'F',
        "SDC:appcheck" => 'A',
        "SDC:unspecified" => 'U',
        "DUE:timeout" => 'T',
        "DUE:crash" => 'C',
        "DUE:exit" => 'E',
        _ => 'I',
    };
    if pdue {
        c.to_ascii_lowercase()
    } else {
        c
    }
}

/// The verdicts of one program's campaign, as the reference stores them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    /// FNV-1a over the sites' parameter-file text, in selection order.
    pub sites_digest: String,
    /// One [`verdict_letter`] per site, in selection order.
    pub letters: String,
}

impl Verdicts {
    /// Build from `(site parameter text, outcome code)` pairs.
    pub fn new(sites: impl IntoIterator<Item = (String, String)>) -> Verdicts {
        let mut h = Fnv::new();
        let mut letters = String::new();
        for (site, code) in sites {
            h.write(site.as_bytes());
            h.write(&[0]);
            letters.push(verdict_letter(&code));
        }
        Verdicts { sites_digest: format!("{:016x}", h.0), letters }
    }

    /// `(masked, sdc, due, potential_due, infra)` tallies.
    pub fn tallies(&self) -> [usize; 5] {
        let mut t = [0; 5];
        for c in self.letters.chars() {
            let slot = match c.to_ascii_uppercase() {
                'M' => 0,
                'S' | 'F' | 'A' | 'U' => 1,
                'T' | 'C' | 'E' => 2,
                _ => 4,
            };
            t[slot] += 1;
            if c.is_ascii_lowercase() {
                t[3] += 1;
            }
        }
        t
    }

    /// Sites whose verdict differs from `reference` (all of them when the
    /// selected sites differ).
    pub fn mismatches(&self, reference: &Verdicts) -> usize {
        if self.sites_digest != reference.sites_digest {
            return self.letters.len().max(reference.letters.len());
        }
        let differing = self.letters.chars().zip(reference.letters.chars()).filter(|(a, b)| a != b);
        differing.count() + self.letters.len().abs_diff(reference.letters.len())
    }
}

/// `(workload key, variant, program)` → verdicts.
pub type Reference = BTreeMap<(String, u64, String), Verdicts>;

const HEADER: &str = "# perfbench verdict reference v1\n\
# workload\tvariant\tprogram\tsites_digest\tmasked\tsdc\tdue\tpotential_due\tinfra\tverdicts\n";

/// Parse the reference file.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse(text: &str) -> Result<Reference, String> {
    let mut out = Reference::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("reference line {}: malformed", i + 1);
        if f.len() != 10 {
            return Err(bad());
        }
        let variant = f[1].parse().map_err(|_| bad())?;
        let v = Verdicts { sites_digest: f[3].to_string(), letters: f[9].to_string() };
        out.insert((f[0].to_string(), variant, f[2].to_string()), v);
    }
    Ok(out)
}

/// Serialize a reference (rows sorted by key).
pub fn render(reference: &Reference) -> String {
    let mut out = HEADER.to_string();
    for ((workload, variant, program), v) in reference {
        let [m, s, d, p, i] = v.tallies();
        let _ = writeln!(
            out,
            "{workload}\t{variant}\t{program}\t{}\t{m}\t{s}\t{d}\t{p}\t{i}\t{}",
            v.sites_digest, v.letters
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(codes: &[&str]) -> Verdicts {
        Verdicts::new(codes.iter().enumerate().map(|(i, c)| (format!("site{i}"), c.to_string())))
    }

    #[test]
    fn letters_and_tallies() {
        let x = v(&["MASKED", "SDC:file", "DUE:crash", "MASKED+pdue", "INFRA:died"]);
        assert_eq!(x.letters, "MFCmI");
        assert_eq!(x.tallies(), [2, 1, 1, 1, 1]);
    }

    #[test]
    fn mismatches_count_differing_sites() {
        let a = v(&["MASKED", "SDC:file", "DUE:crash"]);
        let b = v(&["MASKED", "SDC:stdout", "DUE:crash"]);
        assert_eq!(a.mismatches(&a), 0);
        assert_eq!(a.mismatches(&b), 1);
        let other_sites = Verdicts::new([("elsewhere".to_string(), "MASKED".to_string())]);
        assert_eq!(a.mismatches(&other_sites), 3, "different sites: every site counts");
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut r = Reference::new();
        r.insert(("w".into(), 3, "p".into()), v(&["MASKED", "SDC:appcheck"]));
        r.insert(("smoke/w".into(), 0, "q".into()), v(&["DUE:exit"]));
        assert_eq!(parse(&render(&r)).unwrap(), r);
        assert!(parse("w\t1\tp\n").is_err());
    }
}
