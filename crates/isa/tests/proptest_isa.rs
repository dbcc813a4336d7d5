//! Property-based tests for the ISA substrate.

use proptest::prelude::*;
use rasa_isa::{
    DataType, Instruction, IsaConfig, MemRef, Program, ProgramBuilder, TileGeometry, TileReg,
};

fn arb_tile_reg() -> impl Strategy<Value = TileReg> {
    (0u8..8).prop_map(|i| TileReg::new(i).expect("index < 8"))
}

/// A random but *valid* instruction stream: every tile register is loaded
/// before it is used, mimicking what a real kernel generator produces.
fn arb_valid_program(max_groups: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        (arb_tile_reg(), arb_tile_reg(), arb_tile_reg()),
        1..max_groups,
    )
    .prop_map(|groups| {
        let isa = IsaConfig::amx_like();
        let mut b = ProgramBuilder::new(isa);
        for (i, (acc, a, w)) in groups.into_iter().enumerate() {
            let base = 0x1000 * (i as u64 + 1);
            b.tile_load(acc, MemRef::tile(base, 64));
            b.tile_load(a, MemRef::tile(base + 0x400, 64));
            b.tile_load(w, MemRef::tile(base + 0x800, 64));
            b.matmul(acc, a, w);
            b.tile_store(MemRef::tile(base, 64), acc);
        }
        b.finish().expect("loads precede all uses")
    })
}

proptest! {
    /// Programs produced by the load-before-use pattern always validate, and
    /// their statistics add up.
    #[test]
    fn valid_programs_have_consistent_stats(p in arb_valid_program(20)) {
        prop_assert_eq!(p.stats().total(), p.len());
        prop_assert_eq!(p.stats().matmuls, p.count_matmuls());
        prop_assert_eq!(p.stats().tile_loads, 3 * p.count_matmuls());
        prop_assert_eq!(p.stats().tile_stores, p.count_matmuls());
    }

    /// Weight-reuse pairs are bounded by the number of consecutive matmul
    /// pairs in the program.
    #[test]
    fn weight_reuse_bounded(p in arb_valid_program(20)) {
        let mm = p.count_matmuls();
        prop_assert!(p.weight_reuse_pairs() <= mm.saturating_sub(1));
    }

    /// Reads/writes reported by an instruction never exceed three tile
    /// registers and are always within range.
    #[test]
    fn operand_sets_are_well_formed(acc in arb_tile_reg(), a in arb_tile_reg(), w in arb_tile_reg()) {
        let inst = Instruction::MatMul { acc, a, b: w };
        prop_assert_eq!(inst.tile_reads().len(), 3);
        prop_assert_eq!(inst.tile_writes().len(), 1);
        for r in inst.tile_reads().iter() {
            prop_assert!(r.index() < 8);
        }
    }

    /// Tile geometry arithmetic: capacity in elements equals rows × cols for
    /// both data types, and shapes at the boundary validate while any larger
    /// shape is rejected.
    #[test]
    fn geometry_capacity(rows in 1usize..64, row_bytes in 1usize..16) {
        let row_bytes = row_bytes * 4; // keep rows FP32-aligned
        let g = TileGeometry::new(rows, row_bytes).unwrap();
        for dtype in [DataType::Bf16, DataType::Fp32] {
            let shape = g.max_shape(dtype);
            prop_assert_eq!(shape.rows, rows);
            prop_assert_eq!(shape.cols * dtype.size_bytes(), row_bytes);
            prop_assert!(g.check_shape(shape, dtype).is_ok());
            let mut too_big = shape;
            too_big.cols += 1;
            prop_assert!(g.check_shape(too_big, dtype).is_err());
        }
    }
}
