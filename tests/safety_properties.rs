//! Cross-crate property tests of the paper's security guarantees.

use proptest::prelude::*;

use minesweeper_repro::minesweeper::{MineSweeper, MsConfig};
use minesweeper_repro::sim::{run_exploit, System};
use minesweeper_repro::vmem::{AddrSpace, Segment};
use minesweeper_repro::workloads::exploit::{ExploitOutcome, ExploitStep};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No parameterisation of the Figure 2 attack (victim size, spray
    /// volume, payload) compromises MineSweeper, in either mode.
    #[test]
    fn no_attack_variant_compromises_minesweeper(
        size in 8u64..100_000,
        spray in 1u32..512,
        payload in any::<u64>(),
        mostly in any::<bool>(),
    ) {
        let steps = vec![
            ExploitStep::Alloc { obj: 0, size },
            ExploitStep::StoreRoot { slot: 0, obj: 0 },
            ExploitStep::Free { obj: 0 },
            ExploitStep::SprayEx { size, count: spray, payload },
            ExploitStep::Housekeep,
            ExploitStep::CallThrough { slot: 0 },
        ];
        let sys = if mostly {
            System::minesweeper_mostly()
        } else {
            System::minesweeper_default()
        };
        let r = run_exploit(&steps, sys);
        prop_assert_ne!(r.outcome, ExploitOutcome::Compromised);
        prop_assert!(!r.victim_reallocated,
            "victim memory handed back while a dangling pointer exists");
    }

    /// Whatever mix of sizes is freed with rooted dangling pointers, a
    /// sweep never recycles any of them, and recycles all of them once the
    /// roots are cleared — over the full jalloc size-class spectrum.
    #[test]
    fn dangling_roots_pin_everything_until_cleared(
        sizes in proptest::collection::vec(8u64..60_000, 1..24),
    ) {
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
        let stack = space.layout().segment_base(Segment::Stack);
        let addrs: Vec<_> = sizes.iter().map(|&s| ms.malloc(&mut space, s)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            space.write_word(stack + i as u64 * 8, a.raw()).unwrap();
            ms.free(&mut space, a);
        }
        let report = ms.sweep_now(&mut space);
        prop_assert_eq!(report.released, 0, "rooted danglers must all pin");
        prop_assert_eq!(report.failed, sizes.len() as u64);
        for i in 0..sizes.len() {
            space.write_word(stack + i as u64 * 8, 0).unwrap();
        }
        let report = ms.sweep_now(&mut space);
        prop_assert_eq!(report.released, sizes.len() as u64);
        prop_assert!(ms.quarantine().is_empty());
    }

    /// Interior and one-past-the-end pointers (C/C++ `end()`) also pin: the
    /// +1 byte request padding keeps past-the-end inside the allocation.
    #[test]
    fn end_pointers_pin_allocations(size in 16u64..50_000) {
        let mut space = AddrSpace::new();
        let mut ms = MineSweeper::new(MsConfig::fully_concurrent());
        let stack = space.layout().segment_base(Segment::Stack);
        let a = ms.malloc(&mut space, size);
        // One-past-the-end pointer, as produced by `v.end()`.
        space.write_word(stack, a.raw() + size).unwrap();
        ms.free(&mut space, a);
        let report = ms.sweep_now(&mut space);
        prop_assert_eq!(report.failed, 1,
            "end() pointer for size {} must keep the allocation quarantined", size);
    }
}
