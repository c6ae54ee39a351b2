//! Property-based tests over core data structures and invariants.

use gpu_isa::{
    encode, AtomOp, BoolOp, CmpOp, Dst, Guard, Instr, Kernel, MemRef, MemWidth, Modifier, Module,
    MufuFunc, Opcode, Operand, PReg, Reg, RoundMode, ShflMode, Space, SpecialReg,
};
use nvbitfi::{
    logfile, BitFlipModel, DueKind, InfraKind, InjectionRun, InstrGroup, KernelProfile, Outcome,
    OutcomeClass, Profile, ProfilingMode, SdcReason, TransientParams,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_reg() -> impl Strategy<Value = Reg> {
    any::<u8>().prop_map(Reg)
}

fn arb_preg() -> impl Strategy<Value = PReg> {
    (0u8..8).prop_map(PReg)
}

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    (0..gpu_isa::OPCODE_COUNT).prop_map(|i| Opcode::ALL[i])
}

fn arb_space() -> impl Strategy<Value = Space> {
    prop_oneof![Just(Space::Global), Just(Space::Shared), Just(Space::Local), Just(Space::Const)]
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        Just(Operand::None),
        arb_reg().prop_map(Operand::R),
        arb_reg().prop_map(Operand::R64),
        arb_preg().prop_map(Operand::P),
        arb_preg().prop_map(Operand::NotP),
        any::<u32>().prop_map(Operand::Imm),
        (arb_reg(), any::<i16>(), arb_space())
            .prop_map(|(base, offset, space)| Operand::Mem(MemRef { base, offset, space })),
        (0usize..SpecialReg::ALL.len()).prop_map(|i| Operand::Sr(SpecialReg::ALL[i])),
    ]
}

fn arb_dst() -> impl Strategy<Value = Dst> {
    prop_oneof![
        Just(Dst::None),
        arb_reg().prop_map(Dst::R),
        arb_reg().prop_map(Dst::R64),
        arb_preg().prop_map(Dst::P),
    ]
}

fn arb_modifier() -> impl Strategy<Value = Modifier> {
    prop_oneof![
        Just(Modifier::None),
        (0usize..CmpOp::ALL.len()).prop_map(|i| Modifier::Cmp(CmpOp::ALL[i])),
        (0usize..CmpOp::ALL.len(), 0usize..BoolOp::ALL.len())
            .prop_map(|(c, b)| Modifier::CmpBool(CmpOp::ALL[c], BoolOp::ALL[b])),
        (0usize..MemWidth::ALL.len()).prop_map(|i| Modifier::Width(MemWidth::ALL[i])),
        (0usize..MufuFunc::ALL.len()).prop_map(|i| Modifier::Func(MufuFunc::ALL[i])),
        (0usize..RoundMode::ALL.len()).prop_map(|i| Modifier::Round(RoundMode::ALL[i])),
        any::<u8>().prop_map(Modifier::Lut),
        (0usize..ShflMode::ALL.len()).prop_map(|i| Modifier::Shfl(ShflMode::ALL[i])),
        (0usize..AtomOp::ALL.len()).prop_map(|i| Modifier::AtomOp(AtomOp::ALL[i])),
    ]
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    (arb_preg(), any::<bool>()).prop_map(|(pred, negated)| Guard { pred, negated })
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    // SDC payloads use the parser's placeholder strings so a serialized
    // outcome round-trips to an *equal* value, not just the same kind.
    let class = prop_oneof![
        Just(OutcomeClass::Masked),
        Just(OutcomeClass::Sdc(vec![SdcReason::Stdout])),
        Just(OutcomeClass::Sdc(vec![SdcReason::File("<from-log>".into())])),
        Just(OutcomeClass::Sdc(vec![SdcReason::AppCheck("<from-log>".into())])),
        Just(OutcomeClass::Sdc(vec![])),
        Just(OutcomeClass::Due(DueKind::Timeout)),
        Just(OutcomeClass::Due(DueKind::Crash)),
        Just(OutcomeClass::Due(DueKind::NonZeroExit)),
        Just(OutcomeClass::InfraError(InfraKind::WorkerPanic)),
        Just(OutcomeClass::InfraError(InfraKind::Deadline)),
    ];
    (class, any::<bool>()).prop_map(|(class, potential_due)| Outcome { class, potential_due })
}

prop_compose! {
    fn arb_log_run()(
        igid in 1u8..9,
        bfm in 1u8..5,
        kern in 0u8..4,
        kcount in 0u64..6,
        icount in 0u64..100_000,
        dreg in 0.0f64..1.0,
        bitpat in 0.0f64..1.0,
        outcome in arb_outcome(),
        injected in any::<bool>(),
        wall_us in any::<u32>(),
        skipped in any::<u32>(),
        pruned in any::<bool>(),
        attempts in 1u32..5,
    ) -> InjectionRun {
        InjectionRun {
            params: TransientParams {
                group: InstrGroup::from_id(igid).expect("valid igid"),
                bit_flip: BitFlipModel::from_id(bfm).expect("valid bfm"),
                kernel_name: format!("kern_{kern}"),
                kernel_count: kcount,
                instruction_count: icount,
                destination_register: dreg,
                bit_pattern: bitpat,
            },
            outcome,
            injected,
            wall: std::time::Duration::from_micros(u64::from(wall_us)),
            prefix_instrs_skipped: u64::from(skipped),
            tail_replayed: Default::default(),
            pruned,
            attempts,
            resumed: false,
        }
    }
}

prop_compose! {
    fn arb_instr()(
        op in arb_opcode(),
        guard in arb_guard(),
        modifier in arb_modifier(),
        d0 in arb_dst(),
        d1 in arb_dst(),
        s0 in arb_operand(),
        s1 in arb_operand(),
        s2 in arb_operand(),
        s3 in arb_operand(),
    ) -> Instr {
        let mut i = Instr::new(op);
        i.guard = guard;
        i.modifier = modifier;
        i.dsts = [d0, d1];
        i.srcs = [s0, s1, s2, s3];
        // branch targets are resolved separately; keep 0 so Kernel::new
        // validation passes for any instruction count
        i.target = 0;
        i
    }
}

proptest! {
    #[test]
    fn instruction_encoding_roundtrips(instr in arb_instr()) {
        let mut buf = Vec::new();
        encode::encode_instr(&instr, &mut buf);
        prop_assert_eq!(buf.len(), encode::INSTR_BYTES);
        let mut bytes = buf.as_slice();
        let back = encode::decode_instr(&mut bytes).expect("decode");
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn module_encoding_roundtrips(instrs in prop::collection::vec(arb_instr(), 1..40)) {
        let kernel = Kernel::new("k", instrs, 64).expect("kernel");
        let module = Module::new("m", vec![kernel]);
        let bytes = encode::encode_module(&module);
        let back = encode::decode_module(&bytes).expect("decode");
        prop_assert_eq!(back, module);
    }

    #[test]
    fn truncated_modules_never_panic(instrs in prop::collection::vec(arb_instr(), 1..10), cut in any::<prop::sample::Index>()) {
        let kernel = Kernel::new("k", instrs, 0).expect("kernel");
        let bytes = encode::encode_module(&Module::new("m", vec![kernel]));
        let cut = cut.index(bytes.len());
        // Must return Err, never panic.
        prop_assert!(encode::decode_module(&bytes[..cut]).is_err());
    }

    #[test]
    fn bitflip_masks_in_spec(value in 0.0f64..1.0, original: u32) {
        // FLIP_SINGLE_BIT: exactly one bit.
        prop_assert_eq!(BitFlipModel::FlipSingleBit.mask(value, original).count_ones(), 1);
        // FLIP_TWO_BITS: exactly two adjacent bits.
        let two = BitFlipModel::FlipTwoBits.mask(value, original);
        prop_assert_eq!(two.count_ones(), 2);
        prop_assert_eq!(two >> two.trailing_zeros(), 0b11);
        // ZERO_VALUE: corruption yields zero.
        prop_assert_eq!(BitFlipModel::ZeroValue.corrupt(value, original), 0);
        // Corruption is an involution for XOR-mask models.
        let m = BitFlipModel::FlipSingleBit.mask(value, original);
        prop_assert_eq!(original ^ m ^ m, original);
    }

    #[test]
    fn groups_partition_and_derive(op in arb_opcode()) {
        let base: usize = InstrGroup::ALL[..6].iter().filter(|g| g.contains(op)).count();
        prop_assert_eq!(base, 1);
        prop_assert_eq!(InstrGroup::GpPr.contains(op), !InstrGroup::NoDest.contains(op));
        prop_assert_eq!(
            InstrGroup::Gp.contains(op),
            !InstrGroup::NoDest.contains(op) && !InstrGroup::Pr.contains(op)
        );
    }

    #[test]
    fn profile_file_roundtrips(
        counts in prop::collection::vec((0u64..1000, 0u64..1000), 1..6),
        approx in any::<bool>(),
    ) {
        let kernels: Vec<KernelProfile> = counts
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let mut c = BTreeMap::new();
                if *a > 0 { c.insert(Opcode::DFMA, *a); }
                if *b > 0 { c.insert(Opcode::ISETP, *b); }
                KernelProfile { kernel: format!("kern_{i}"), instance: i as u64, counts: c }
            })
            .collect();
        let profile = Profile {
            mode: if approx { ProfilingMode::Approximate } else { ProfilingMode::Exact },
            kernels,
        };
        let text = profile.to_file();
        prop_assert_eq!(Profile::from_file(&text).expect("parse"), profile);
    }

    #[test]
    fn guards_encode_roundtrip(guard in arb_guard()) {
        prop_assert_eq!(Guard::decode(guard.encode()), guard);
    }

    #[test]
    fn results_log_roundtrips_every_version(
        runs in prop::collection::vec(arb_log_run(), 1..10),
    ) {
        // v5 is the only results-log version the reader accepts: every
        // field of every row survives the round trip.
        let mut text = logfile::results_log_header("fuzz.prog", &[("seed", "7".to_string())]);
        for r in &runs {
            text.push_str(&logfile::results_log_row(r));
        }
        let rows = logfile::read_results_log(&text).expect("v5 log parses");
        prop_assert_eq!(rows.len(), runs.len());
        for (row, run) in rows.iter().zip(&runs) {
            prop_assert_eq!(&row.params, &run.params);
            prop_assert_eq!(&row.outcome, &run.outcome);
            prop_assert_eq!(row.injected, run.injected);
            prop_assert_eq!(row.wall.as_micros(), run.wall.as_micros());
            prop_assert_eq!(row.prefix_instrs_skipped, run.prefix_instrs_skipped);
            prop_assert_eq!(row.pruned, run.pruned);
            prop_assert_eq!(row.attempts, run.attempts);
        }
        let header = logfile::parse_log_header(&text);
        prop_assert_eq!(header.program.as_deref(), Some("fuzz.prog"));
        prop_assert_eq!(header.meta.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn results_log_recovery_tolerates_any_torn_tail(
        runs in prop::collection::vec(arb_log_run(), 1..8),
        frag in any::<prop::sample::Index>(),
    ) {
        let mut text = logfile::results_log_header("fuzz.prog", &[]);
        for r in &runs {
            text.push_str(&logfile::results_log_row(r));
        }
        let clean = logfile::read_results_log(&text).expect("clean log parses");

        // A crash mid-append tears the final line at an arbitrary byte
        // (rows are ASCII, so every index is a char boundary). `cut` never
        // reaches the trailing newline, so any nonzero fragment is torn.
        let extra = logfile::results_log_row(&runs[0]);
        let cut = frag.index(extra.len());
        let torn_text = format!("{text}{}", &extra[..cut]);
        let (rows, torn) = logfile::recover_results_log(&torn_text).expect("recoverable");
        prop_assert_eq!(torn, cut > 0);
        prop_assert_eq!(rows.len(), runs.len(), "only the torn tail is dropped");
        prop_assert_eq!(logfile::tally(&rows), logfile::tally(&clean));
    }

    #[test]
    fn builder_kernels_roundtrip_through_listings(ops in prop::collection::vec((0u8..12, 0u8..16, 0u8..16, 0u8..16, any::<i16>()), 1..30)) {
        // Random straight-line builder programs survive
        // disasm → parse exactly.
        use gpu_isa::asm::KernelBuilder;
        use gpu_isa::{asm_text, disasm, CmpOp, MufuFunc};
        let mut k = KernelBuilder::new("fuzz");
        for (sel, a, b, c, imm) in ops {
            let (ra, rb, rc) = (Reg(a), Reg(b), Reg(c));
            match sel {
                0 => { k.fadd(ra, rb, rc); }
                1 => { k.imad(ra, rb, rc, Reg(a ^ 1)); }
                2 => { k.movi(ra, imm as u32); }
                3 => { k.ldg(ra, rb, imm & 0x3FF); }
                4 => { k.stg(ra, imm & 0x3FF, rb); }
                5 => { k.isetp(PReg(a & 7), CmpOp::ALL[(b % 6) as usize], rc, imm as i32); }
                6 => { k.mufu(MufuFunc::ALL[(b % 7) as usize], ra, rc); }
                7 => { k.lds(ra, rb, (imm & 0xFF).abs()); }
                8 => { k.dfma(ra, rb, rc, Reg(a.wrapping_add(2))); }
                9 => { k.shli(ra, rb, (c & 31) as u32); }
                10 => { k.and(ra, rb, rc); }
                _ => { k.nop(); }
            }
        }
        k.exit();
        let kernel = k.finish();
        let listing = disasm::kernel(&kernel);
        let back = asm_text::parse_kernel(&listing).expect("parse own listing");
        prop_assert_eq!(back, kernel);
    }
}

// ---------------------------------------------------------------------------
// Worker-protocol transport: the supervisor/worker frame stream and message
// codec must round-trip any payload and survive any byte garbage without
// panicking — a corrupt child can write anything into the pipe.

fn arb_wire_string() -> impl Strategy<Value = String> {
    // Hostile payloads: arbitrary Unicode scalars, including quotes,
    // backslashes, newlines, control characters, and non-BMP code points
    // (surrogate-range draws fold into control characters).
    prop::collection::vec(any::<u32>(), 0..64).prop_map(|vs| {
        vs.into_iter()
            .map(|v| {
                char::from_u32(v % 0x11_0000).unwrap_or_else(|| char::from_u32(v % 0x20).unwrap())
            })
            .collect()
    })
}

fn arb_msg() -> impl Strategy<Value = nvbitfi::Msg> {
    use nvbitfi::{Msg, WorkerInit};
    prop_oneof![
        (
            arb_wire_string(),
            arb_wire_string(),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(program, scale, use_checkpoints, has_deadline, deadline, heartbeat_ms)| {
                    Msg::Init(WorkerInit {
                        program,
                        scale,
                        use_checkpoints,
                        deadline_ms: has_deadline.then_some(deadline),
                        heartbeat_ms,
                    })
                }
            ),
        Just(Msg::Ready),
        (any::<u64>(), arb_wire_string()).prop_map(|(id, site)| Msg::Run { id, site }),
        Just(Msg::Heartbeat),
        (
            (any::<u64>(), arb_wire_string(), any::<bool>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>())
        )
            .prop_map(
                |((id, outcome, injected, wall_us), (skip_instrs, tail_launches, tail_instrs))| {
                    Msg::Done {
                        id,
                        outcome,
                        injected,
                        wall_us,
                        skip_instrs,
                        tail_launches,
                        tail_instrs,
                    }
                }
            ),
        arb_wire_string().prop_map(|message| Msg::Error { message }),
        Just(Msg::Shutdown),
    ]
}

proptest! {
    #[test]
    fn worker_frames_roundtrip(payload in arb_wire_string()) {
        use nvbitfi::worker::{read_frame, write_frame};
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r).expect("read"), Some(payload));
        // The stream then ends cleanly at a frame boundary.
        prop_assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn torn_worker_frames_error_instead_of_panicking(
        payload in arb_wire_string(),
        cut in any::<prop::sample::Index>(),
    ) {
        use nvbitfi::worker::{read_frame, write_frame};
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let cut = cut.index(buf.len());
        let got = read_frame(&mut &buf[..cut]);
        if cut == 0 {
            // Nothing read yet: a clean end-of-stream, not corruption.
            prop_assert_eq!(got.expect("clean eof"), None);
        } else {
            prop_assert!(got.is_err(), "a torn frame is a transport error");
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_frame_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        // Any Ok/Err verdict is acceptable for arbitrary garbage — the
        // invariant is that the reader never panics and never fabricates
        // an oversized frame.
        if let Ok(Some(payload)) = nvbitfi::worker::read_frame(&mut &bytes[..]) {
            prop_assert!(payload.len() <= nvbitfi::MAX_FRAME as usize);
        }
    }

    #[test]
    fn worker_messages_roundtrip(msg in arb_msg()) {
        let encoded = msg.to_json();
        prop_assert_eq!(nvbitfi::Msg::parse(&encoded), Some(msg));
    }

    #[test]
    fn message_parser_never_panics_on_garbage(text in arb_wire_string()) {
        let _ = nvbitfi::Msg::parse(&text);
    }
}
