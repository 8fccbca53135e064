//! Serializable attack factory.
//!
//! Experiment configurations (`ldp-sim`) name attacks declaratively; the
//! randomized per-trial state — which items are targeted, which sub-domain
//! Manip poisons, which distribution the adaptive attacker designs — is
//! instantiated fresh for every trial from the trial's RNG stream, exactly
//! as the paper's evaluation re-randomizes across its 10 trials.

use ldp_common::Domain;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::adaptive::AdaptiveAttack;
use crate::ipa::InputPoisoning;
use crate::manip::Manip;
use crate::mga::{Mga, MgaSampled};
use crate::multi::MultiAttack;
use crate::traits::PoisoningAttack;

/// Declarative description of a poisoning attack (paper §VI-A.3, §VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Cheu et al.'s untargeted attack over a random sub-domain of size `h`.
    Manip {
        /// Size of the malicious sub-domain `|H|`.
        h: usize,
    },
    /// Precise maximal gain attack with `r` random targets.
    Mga {
        /// Number of target items.
        r: usize,
    },
    /// The paper's sampling-based MGA simplification with `r` random targets.
    MgaSampled {
        /// Number of target items.
        r: usize,
    },
    /// Adaptive attack with a per-trial random designed distribution.
    Adaptive,
    /// Camouflaged adaptive attack: OUE reports padded to a genuine-looking
    /// popcount (extension; see `adaptive::CamouflagedAdaptive`).
    AdaptiveCamouflaged,
    /// MGA under input poisoning (honest perturbation of target inputs).
    MgaIpa {
        /// Number of target items.
        r: usize,
    },
    /// `attackers` independent adaptive attackers sharing the malicious
    /// population (§VII-C).
    MultiAdaptive {
        /// Number of attackers.
        attackers: usize,
    },
}

/// Builds an attack from its size parameter.
type FromSize = fn(usize) -> AttackKind;

/// The attack table, the one source of each kind's names: its CLI and
/// stream-checkpoint name, the label the paper's figures use, and how to
/// build it from its size parameter (kinds without one ignore it).
#[rustfmt::skip]
const TABLE: [(&str, &str, FromSize); 7] = [
    ("manip",       "Manip",   |h| AttackKind::Manip { h }),
    ("mga",         "MGA",     |r| AttackKind::Mga { r }),
    ("mga-sampled", "MGA-S",   |r| AttackKind::MgaSampled { r }),
    ("aa",          "AA",      |_| AttackKind::Adaptive),
    ("aa-camo",     "AA-C",    |_| AttackKind::AdaptiveCamouflaged),
    ("mga-ipa",     "MGA-IPA", |r| AttackKind::MgaIpa { r }),
    ("multi",       "MUL-AA",  |attackers| AttackKind::MultiAdaptive { attackers }),
];

impl AttackKind {
    /// Builds the attack named `name` with size parameter `size` (see
    /// [`AttackKind::size`]); `None` for a name outside the table.
    pub fn from_name(name: &str, size: usize) -> Option<Self> {
        TABLE
            .iter()
            .find(|(known, _, _)| *known == name)
            .map(|(_, _, build)| build(size))
    }

    /// This kind's row of the attack table.
    fn row(&self) -> &'static (&'static str, &'static str, FromSize) {
        let size = self.size().map_or(0, |(_, n)| n);
        TABLE
            .iter()
            .find(|(_, _, build)| build(size) == *self)
            .expect("the attack table covers every kind")
    }

    /// The CLI and stream-checkpoint name (`mga`, `aa-camo`, …).
    pub fn name(&self) -> &'static str {
        self.row().0
    }

    /// The label the paper's figures use for this attack.
    pub fn label(&self) -> String {
        self.row().1.to_string()
    }

    /// The size parameter with its key: `h` for Manip, `r` for the MGA
    /// family, `attackers` for Multi; `None` for the adaptive attacks. The
    /// keys are stream-checkpoint member names.
    pub fn size(&self) -> Option<(&'static str, usize)> {
        match *self {
            Self::Manip { h } => Some(("h", h)),
            Self::Mga { r } | Self::MgaSampled { r } | Self::MgaIpa { r } => Some(("r", r)),
            Self::MultiAdaptive { attackers } => Some(("attackers", attackers)),
            Self::Adaptive | Self::AdaptiveCamouflaged => None,
        }
    }

    /// Instantiates the attack's per-trial randomized state.
    ///
    /// # Panics
    /// Panics when structural parameters are out of range for the domain
    /// (`h`/`r` of 0 or exceeding `d`, zero attackers) — configuration bugs,
    /// not runtime conditions.
    pub fn instantiate<R: Rng + ?Sized>(
        &self,
        domain: Domain,
        rng: &mut R,
    ) -> Box<dyn PoisoningAttack + Send + Sync> {
        match *self {
            AttackKind::Manip { h } => Box::new(Manip::sample(domain, h, rng)),
            AttackKind::Mga { r } => Box::new(Mga::random_targets(domain, r, rng)),
            AttackKind::MgaSampled { r } => Box::new(MgaSampled::random_targets(domain, r, rng)),
            AttackKind::Adaptive => Box::new(AdaptiveAttack::random(domain, rng)),
            AttackKind::AdaptiveCamouflaged => {
                Box::new(crate::adaptive::CamouflagedAdaptive::random(domain, rng))
            }
            AttackKind::MgaIpa { r } => Box::new(InputPoisoning::random_targets(domain, r, rng)),
            AttackKind::MultiAdaptive { attackers } => {
                assert!(attackers >= 1, "need at least one attacker");
                let boxed: Vec<Box<dyn PoisoningAttack + Send + Sync>> = (0..attackers)
                    .map(|_| {
                        Box::new(AdaptiveAttack::random(domain, rng))
                            as Box<dyn PoisoningAttack + Send + Sync>
                    })
                    .collect();
                Box::new(MultiAttack::new(boxed))
            }
        }
    }

    /// Whether the attack has a target set (drives FG measurement and the
    /// partial-knowledge recovery arm).
    pub fn is_targeted(&self) -> bool {
        matches!(
            self,
            AttackKind::Mga { .. } | AttackKind::MgaSampled { .. } | AttackKind::MgaIpa { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_common::rng::rng_from_seed;
    use ldp_protocols::ProtocolKind;

    #[test]
    fn every_kind_instantiates_and_crafts() {
        let domain = Domain::new(32).unwrap();
        let kinds = [
            AttackKind::Manip { h: 4 },
            AttackKind::Mga { r: 5 },
            AttackKind::MgaSampled { r: 5 },
            AttackKind::Adaptive,
            AttackKind::AdaptiveCamouflaged,
            AttackKind::MgaIpa { r: 5 },
            AttackKind::MultiAdaptive { attackers: 5 },
        ];
        let mut rng = rng_from_seed(1);
        for kind in kinds {
            let attack = kind.instantiate(domain, &mut rng);
            for proto_kind in ProtocolKind::ALL {
                let proto = proto_kind.build(0.5, domain).unwrap();
                let reports = attack.craft(&proto, 25, &mut rng);
                assert_eq!(reports.len(), 25, "{kind:?} under {proto_kind:?}");
            }
            assert_eq!(kind.is_targeted(), attack.targets().is_some());
            let size = kind.size().map_or(0, |(_, n)| n);
            assert_eq!(AttackKind::from_name(kind.name(), size), Some(kind));
        }
        assert_eq!(AttackKind::from_name("ddos", 1), None);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(AttackKind::Manip { h: 3 }.label(), "Manip");
        assert_eq!(AttackKind::Mga { r: 10 }.label(), "MGA");
        assert_eq!(AttackKind::Adaptive.label(), "AA");
        assert_eq!(AttackKind::MgaIpa { r: 10 }.label(), "MGA-IPA");
        assert_eq!(AttackKind::MultiAdaptive { attackers: 5 }.label(), "MUL-AA");
    }

    #[test]
    fn per_trial_randomization_differs() {
        let domain = Domain::new(64).unwrap();
        let mut rng = rng_from_seed(2);
        let a = AttackKind::Mga { r: 8 }.instantiate(domain, &mut rng);
        let b = AttackKind::Mga { r: 8 }.instantiate(domain, &mut rng);
        assert_ne!(a.targets().unwrap(), b.targets().unwrap());
    }
}
