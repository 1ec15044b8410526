//! Seed determinism: the request script is a pure function of the seed.

use perfbench::inputs::{Inputs, Op, Workload, K, WRITER};

const OPS: usize = 2_000;

#[test]
fn same_seed_gives_a_byte_identical_script() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7).canonical_bytes(OPS);
        let b = Inputs::generate(workload, 7).canonical_bytes(OPS);
        assert_eq!(a, b, "{} must replay byte for byte", workload.name());
    }
}

#[test]
fn different_seeds_give_different_scripts() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7).canonical_bytes(OPS);
        let b = Inputs::generate(workload, 8).canonical_bytes(OPS);
        assert_ne!(a, b, "{} must depend on the seed", workload.name());
    }
}

#[test]
fn writers_only_delete_their_own_inserts() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, 3);
        let mut live = 0i64;
        for op in inputs.stream(WRITER).take(OPS) {
            match op {
                Op::Insert(values) => {
                    assert_eq!(values.len(), inputs.raw[0].len());
                    live += 1;
                }
                Op::DeleteOldest => {
                    live -= 1;
                    assert!(live >= 0, "{}: delete before insert", workload.name());
                }
                _ => {}
            }
        }
        assert!(live <= 4, "{}: n must stay flat", workload.name());
    }
}

#[test]
fn negative_lookups_are_deeply_dominated() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, 5);
        for focal in &inputs.lookups {
            let dominators = inputs
                .raw
                .iter()
                .filter(|r| r.iter().zip(focal).all(|(a, b)| a >= b) && *r != focal)
                .count();
            assert!(
                dominators >= K,
                "{}: lookup focal is competitive",
                workload.name()
            );
        }
        assert!(!inputs.rotation.is_empty());
    }
}
