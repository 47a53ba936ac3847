//! Committed reference outputs and exact work counters, read from
//! `perfbench/references.txt` and regenerated by `--write-references`.
//!
//! One line per reference, whitespace separated:
//!
//! ```text
//! ga   <campaign seed> <evaluations> <newton> <shooting> <fallbacks> <gmres fallbacks> <slow evaluations> <best fitness>
//! card <fixture> <level> <newton> <shooting> <fallbacks> <gmres fallbacks> <value per card>...
//! ```

use crate::measure::Work;

/// Reference of one GA campaign of the `ga_campaign` pool.
#[derive(Debug, Clone, PartialEq)]
pub struct GaReference {
    /// The GA's RNG seed.
    pub seed: u64,
    /// Objective evaluations of the campaign.
    pub evaluations: u64,
    /// Work counters summed over the campaign's evaluations.
    pub work: Work,
    /// Evaluations with at least one brute-force fallback.
    pub slow: u64,
    /// Best fitness the campaign found.
    pub best_fitness: f64,
}

/// Reference of one perturbed `netlist_cards` fixture.
#[derive(Debug, Clone, PartialEq)]
pub struct CardReference {
    /// Fixture name.
    pub fixture: String,
    /// Perturbation level.
    pub level: usize,
    /// Work counters of the plan run.
    pub work: Work,
    /// The run's output signature, one value per card.
    pub values: Vec<f64>,
}

/// Every committed reference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct References {
    /// The GA campaign pool.
    pub ga: Vec<GaReference>,
    /// The netlist fixtures at every perturbation level.
    pub cards: Vec<CardReference>,
}

impl References {
    /// The references committed beside the benchmark.
    pub fn committed() -> Self {
        Self::parse(include_str!("../references.txt"))
            .unwrap_or_else(|e| panic!("perfbench/references.txt is malformed: {e}"))
    }

    /// Parses the reference format.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut refs = References::default();
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.is_empty() || fields[0].starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("line {}: {what}", n + 1);
            let int = |i: usize| -> Result<u64, String> {
                fields
                    .get(i)
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| bad("expected an integer"))
            };
            let work = |at: usize| -> Result<Work, String> {
                Ok(Work {
                    newton: int(at)?,
                    shooting: int(at + 1)?,
                    fallbacks: int(at + 2)?,
                    gmres_fallbacks: int(at + 3)?,
                })
            };
            let float = |f: &str| f.parse::<f64>().map_err(|_| bad("expected a number"));
            match fields[0] {
                "ga" if fields.len() == 9 => refs.ga.push(GaReference {
                    seed: int(1)?,
                    evaluations: int(2)?,
                    work: work(3)?,
                    slow: int(7)?,
                    best_fitness: float(fields[8])?,
                }),
                "card" if fields.len() >= 8 => refs.cards.push(CardReference {
                    fixture: fields[1].to_string(),
                    level: int(2)? as usize,
                    work: work(3)?,
                    values: fields[7..]
                        .iter()
                        .map(|f| float(f))
                        .collect::<Result<_, _>>()?,
                }),
                _ => return Err(bad("unknown or short record")),
            }
        }
        Ok(refs)
    }

    /// Renders the references in the format [`References::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference outputs and exact work counters of the perfbench workloads.\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- \
             --write-references > perfbench/references.txt\n",
        );
        let work = |w: &Work| {
            format!(
                "{} {} {} {}",
                w.newton, w.shooting, w.fallbacks, w.gmres_fallbacks
            )
        };
        for r in &self.ga {
            out.push_str(&format!(
                "ga {} {} {} {} {:?}\n",
                r.seed,
                r.evaluations,
                work(&r.work),
                r.slow,
                r.best_fitness
            ));
        }
        for r in &self.cards {
            let values: Vec<String> = r.values.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&format!(
                "card {} {} {} {}\n",
                r.fixture,
                r.level,
                work(&r.work),
                values.join(" ")
            ));
        }
        out
    }

    /// The reference of `fixture` at perturbation `level`.
    pub fn card(&self, fixture: &str, level: usize) -> Option<&CardReference> {
        self.cards
            .iter()
            .find(|r| r.fixture == fixture && r.level == level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_round_trips() {
        let refs = References {
            ga: vec![GaReference {
                seed: 3,
                evaluations: 34,
                work: Work {
                    newton: 10,
                    shooting: 2,
                    fallbacks: 1,
                    gmres_fallbacks: 0,
                },
                slow: 1,
                best_fitness: 8.25e-5,
            }],
            cards: vec![CardReference {
                fixture: "villard".into(),
                level: 2,
                work: Work::default(),
                values: vec![1.5, -0.1],
            }],
        };
        assert_eq!(References::parse(&refs.render()), Ok(refs));
        assert!(References::parse("ga 1 2").is_err());
    }
}
