//! Regenerates **Table III**: the permanent fault parameters — SM id, lane
//! id, bit mask, and opcode id over the 171-opcode Volta-sized ISA.

use gpu_isa::{Opcode, OPCODE_COUNT};
use nvbitfi::PermanentParams;

fn main() {
    println!("TABLE III — Permanent fault parameters\n");
    let rows = vec![
        vec!["parameter".to_string(), "range".to_string(), "description".to_string()],
        vec![
            "SM id".to_string(),
            format!("0..{}", gpu_sim::NUM_SMS),
            "which streaming multiprocessor to inject (Titan V default)".to_string(),
        ],
        vec![
            "Lane id".to_string(),
            "0..32".to_string(),
            "which hardware lane to inject".to_string(),
        ],
        vec![
            "Bit mask".to_string(),
            "u32".to_string(),
            "XOR mask applied to every destination register".to_string(),
        ],
        vec![
            "Opcode id".to_string(),
            format!("0..{OPCODE_COUNT}"),
            "the ISA contains exactly 171 opcodes, as the paper reports for Volta".to_string(),
        ],
    ];
    print!("{}", nvbitfi::report::table(&rows));
    assert_eq!(OPCODE_COUNT, 171);

    println!("\nopcode id space (first and last entries):");
    for id in [0u16, 1, 2, 168, 169, 170] {
        let op = Opcode::decode(id).expect("valid id");
        println!("  {id:>3} -> {:<10} class {}", op.mnemonic(), op.class());
    }

    let p = PermanentParams { sm_id: 17, lane_id: 5, bit_mask: 0x0000_8000, opcode_id: 3 };
    p.validate().expect("valid");
    println!("\nexample parameter file:");
    for line in p.to_file().lines() {
        println!("  {line}");
    }
    println!("\nround-trip parse: {}", PermanentParams::from_file(&p.to_file()).expect("parse"));
}
