//! Property-based differential tests for the baseline indexes, mirroring
//! the `prop_tree_matches_btreemap` suite the core crate runs on
//! FAST+FAIR. Each baseline is driven with a random op sequence and must
//! agree with `BTreeMap` on every intermediate answer and on its final
//! contents.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::PmIndex;
use proptest::prelude::*;

fn drive(idx: &dyn PmIndex, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_val = 0x4000u64;
    for &(op, key) in ops {
        match op % 4 {
            0 | 3 => {
                next_val += 8;
                idx.insert(key, next_val).unwrap();
                model.insert(key, next_val);
            }
            1 => {
                prop_assert_eq!(idx.remove(key), model.remove(&key).is_some());
            }
            _ => {
                prop_assert_eq!(idx.get(key), model.get(&key).copied());
            }
        }
    }
    let mut got = Vec::new();
    idx.range(0, u64::MAX, &mut got);
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..4, 1u64..800), 1..250)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wbtree_matches_model(ops in ops_strategy()) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
        let t = fastfair_repro::wbtree::WbTree::create(pool).unwrap();
        drive(&t, &ops)?;
    }

    #[test]
    fn fptree_matches_model(ops in ops_strategy()) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
        let t = fastfair_repro::fptree::FpTree::create(pool).unwrap();
        drive(&t, &ops)?;
    }

    #[test]
    fn wort_matches_model(ops in ops_strategy()) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
        let t = fastfair_repro::wort::Wort::create(pool).unwrap();
        drive(&t, &ops)?;
    }

    #[test]
    fn pskiplist_matches_model(ops in ops_strategy()) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
        let t = fastfair_repro::pskiplist::PSkipList::create(pool).unwrap();
        drive(&t, &ops)?;
    }
}
