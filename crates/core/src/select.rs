//! Random fault-site selection — Figure 1, step 2.
//!
//! "A dynamic instruction will be selected from the set of executed
//! instructions by choosing a random number *n* from the set `1..N`, where
//! `N` is the total number of profiled dynamic instructions. This *n*-th
//! instruction is then translated into a tuple of `<kernel_name,
//! kernel_count, instruction_count>` values" (§III-A).

use crate::bitflip::BitFlipModel;
use crate::error::FiError;
use crate::igid::InstrGroup;
use crate::params::TransientParams;
use crate::profile::{KernelProfile, Profile};
use rand::Rng;

/// Draw one transient fault uniformly over the group's dynamic instructions.
///
/// The destination-register and bit-pattern values are drawn uniformly from
/// `[0, 1)` as Table II specifies.
///
/// # Errors
///
/// Returns [`FiError::EmptyPopulation`] if the profile contains no dynamic
/// instructions in `group`.
pub fn select_transient(
    profile: &Profile,
    group: InstrGroup,
    bit_flip: BitFlipModel,
    rng: &mut impl Rng,
) -> Result<TransientParams, FiError> {
    let mut sites = select_campaign(profile, group, bit_flip, 1, rng)?;
    Ok(sites.pop().expect("one site drawn"))
}

/// Draw `count` independent transient faults (one injection campaign's
/// worth, e.g. the paper's 100 per program). The group population is
/// summed once per kernel and each site found by binary search over those
/// sums; each site's destination-register and bit-pattern values are drawn
/// right after its `n`.
///
/// # Errors
///
/// Returns [`FiError::EmptyPopulation`] if the group is empty in the
/// profile.
pub fn select_campaign(
    profile: &Profile,
    group: InstrGroup,
    bit_flip: BitFlipModel,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<TransientParams>, FiError> {
    let population = Population::new(profile, group);
    let total = population.total();
    if total == 0 && count > 0 {
        return Err(FiError::EmptyPopulation { group: group.name().to_string() });
    }
    let sites = (0..count).map(|_| {
        let n = rng.gen_range(0..total);
        let (k, instruction_count) = population.locate(n).expect("n is below the total");
        TransientParams {
            group,
            bit_flip,
            kernel_name: k.kernel.clone(),
            kernel_count: k.instance,
            instruction_count,
            destination_register: rng.gen_range(0.0..1.0),
            bit_pattern: rng.gen_range(0.0..1.0),
        }
    });
    Ok(sites.collect())
}

/// A group's dynamic instructions in program order, summed once per kernel.
struct Population<'p> {
    profile: &'p Profile,
    /// `ends[i]`: the group instructions in kernels `0..=i`.
    ends: Vec<u64>,
}

impl<'p> Population<'p> {
    fn new(profile: &'p Profile, group: InstrGroup) -> Population<'p> {
        let ends = profile
            .kernels
            .iter()
            .scan(0, |sum, k| {
                *sum += k.total_in_group(group);
                Some(*sum)
            })
            .collect();
        Population { profile, ends }
    }

    /// `N`: the group's dynamic instructions across the program.
    fn total(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The paper's *n*-th → `<kernel, kernel count, instruction count>`
    /// translation: the dynamic kernel holding the `n`-th group instruction
    /// (0-based, program order) and `n`'s index among that kernel's group
    /// instructions, found by binary search. `None` if `n` is at or past
    /// [`Population::total`].
    fn locate(&self, n: u64) -> Option<(&'p KernelProfile, u64)> {
        let i = self.ends.partition_point(|&end| end <= n);
        let before = if i == 0 { 0 } else { self.ends[i - 1] };
        self.profile.kernels.get(i).map(|k| (k, n - before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfilingMode;
    use gpu_isa::Opcode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn profile() -> Profile {
        let mut counts = BTreeMap::new();
        counts.insert(Opcode::FADD, 60u64);
        counts.insert(Opcode::EXIT, 40);
        let mut counts2 = BTreeMap::new();
        counts2.insert(Opcode::FADD, 40u64);
        Profile {
            mode: ProfilingMode::Exact,
            kernels: vec![
                KernelProfile { kernel: "k".into(), instance: 0, counts },
                KernelProfile { kernel: "k".into(), instance: 1, counts: counts2 },
            ],
        }
    }

    #[test]
    fn selection_is_deterministic_for_a_seed() {
        let p = profile();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = select_transient(&p, InstrGroup::Fp32, BitFlipModel::FlipSingleBit, &mut r1)
            .expect("select");
        let b = select_transient(&p, InstrGroup::Fp32, BitFlipModel::FlipSingleBit, &mut r2)
            .expect("select");
        assert_eq!(a, b);
    }

    #[test]
    fn selection_respects_group_population() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = select_transient(&p, InstrGroup::Fp32, BitFlipModel::RandomValue, &mut rng)
                .expect("select");
            assert_eq!(s.kernel_name, "k");
            // FP32 population: 60 in instance 0, 40 in instance 1.
            match s.kernel_count {
                0 => assert!(s.instruction_count < 60),
                1 => assert!(s.instruction_count < 40),
                other => panic!("unexpected instance {other}"),
            }
            assert!((0.0..1.0).contains(&s.destination_register));
            assert!((0.0..1.0).contains(&s.bit_pattern));
        }
    }

    #[test]
    fn selection_is_roughly_uniform_across_instances() {
        // 60% of FP32 instructions are in instance 0.
        let p = profile();
        let mut rng = StdRng::seed_from_u64(11);
        let mut inst0 = 0;
        let n = 2000;
        for _ in 0..n {
            let s = select_transient(&p, InstrGroup::Fp32, BitFlipModel::FlipSingleBit, &mut rng)
                .expect("select");
            if s.kernel_count == 0 {
                inst0 += 1;
            }
        }
        let frac = inst0 as f64 / n as f64;
        assert!((0.55..0.65).contains(&frac), "got {frac}");
    }

    #[test]
    fn empty_population_is_an_error() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(1);
        let err = select_transient(&p, InstrGroup::Fp64, BitFlipModel::FlipSingleBit, &mut rng)
            .unwrap_err();
        assert!(matches!(err, FiError::EmptyPopulation { .. }));
    }

    #[test]
    fn campaign_draws_requested_count() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(5);
        let sites =
            select_campaign(&p, InstrGroup::GpPr, BitFlipModel::FlipSingleBit, 100, &mut rng)
                .expect("campaign");
        assert_eq!(sites.len(), 100);
    }

    #[test]
    fn locate_maps_every_n_to_a_distinct_site() {
        // Dynamic kernels whose G_GP populations (FADD + LDG) are 0, 5, 0, 4
        // and 0; EXIT is outside the group.
        let kernel = |instance, fadd, ldg| KernelProfile {
            kernel: "k".into(),
            instance,
            counts: BTreeMap::from([(Opcode::FADD, fadd), (Opcode::LDG, ldg), (Opcode::EXIT, 7)]),
        };
        let p = Profile {
            mode: ProfilingMode::Exact,
            kernels: vec![
                kernel(0, 0, 0),
                kernel(1, 3, 2),
                kernel(2, 0, 0),
                kernel(3, 0, 4),
                kernel(4, 0, 0),
            ],
        };
        let group = InstrGroup::Gp;
        let population = Population::new(&p, group);
        let total = population.total();
        assert_eq!(total, p.total_in_group(group));
        let mut seen = std::collections::HashSet::new();
        for n in 0..total {
            let (k, instruction_count) = population.locate(n).expect("in range");
            assert!(instruction_count < k.total_in_group(group), "n={n}");
            assert!(seen.insert((k.kernel.clone(), k.instance, instruction_count)), "n={n}");
        }
        assert_eq!(seen.len() as u64, total, "distinct sites");
        assert!(population.locate(total).is_none());
    }
}
