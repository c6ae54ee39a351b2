//! The simulated-cycle cost model.
//!
//! Wall-clock overheads in the paper's Figure 4 come from instrumentation
//! structure; the simulator additionally reports *simulated cycles* so the
//! same overhead ratios can be computed in virtual time, independent of host
//! machine noise. Latencies are loosely modeled on Volta issue-to-use
//! latencies and are deliberately coarse.

use gpu_isa::ExecFamily;

/// Issue-to-use latency, in cycles, charged per executed warp-group.
///
/// Always inlined, like the warp loop's other per-issue helpers: the loop
/// is compiled once per observer kind, and with several callers the
/// compiler would otherwise leave these as calls.
#[inline(always)]
pub(crate) fn latency(family: ExecFamily) -> u64 {
    use ExecFamily::*;
    match family {
        // Core FP32 / integer ALU
        FAdd | FMul | FFma | FMnMx | FSel | FSet | FCmp | FRnd => 4,
        // Packed FP16 runs at FP32-like latency on Volta
        HAdd2 | HMul2 | HFma2 | HSet2 | HMnMx2 => 4,
        HSetP2 => 5,
        IAdd | ISub | IAdd3 | IMnMx | IScAdd | Lea | ISet | ICmp | ISad | IAbs | Lop | Lop3
        | Bmsk | Bfe | Bfi | Shf | Shl | Shr | Brev | Popc | Flo | Sgxt | Prmt | Sel | Mov => 4,
        IMad | IMul | Xmad => 5,
        // Predicate datapath
        FSetP | ISetP | DSetP | PSet | PSetP | PLop3 | FChk | P2R | R2P => 5,
        // FP64 runs at half rate on GV100-class parts
        DAdd | DMul | DFma | DMnMx | DSet => 8,
        // Transcendentals and conversions go through the MUFU / XU pipes
        Mufu => 16,
        F2F | F2I | I2F | I2I => 8,
        // Cross-lane
        Shfl | Vote | FSwzAdd => 12,
        S2R => 6,
        // Memory
        Ld => 40,
        St | Red => 8,
        Atom => 60,
        // Control
        Bra | Brx | Call | Ret => 8,
        Bar => 30,
        Exit | Kill | Bpt => 1,
        Nop | MemFence | NanoSleep | ReconvHint => 1,
        Unimplemented => 1,
    }
}

/// Extra cycles charged when an instrumentation callback fires, modeling the
/// cost of the injected `insert_call` trampoline on real hardware.
pub(crate) const HOOK_CYCLES: u64 = 18;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_is_slower_than_alu() {
        assert!(latency(ExecFamily::Ld) > latency(ExecFamily::FAdd));
        assert!(latency(ExecFamily::Atom) > latency(ExecFamily::Ld));
    }

    #[test]
    fn fp64_is_slower_than_fp32() {
        assert!(latency(ExecFamily::DFma) > latency(ExecFamily::FFma));
    }

    #[test]
    fn every_family_has_nonzero_latency() {
        use gpu_isa::Opcode;
        for op in Opcode::ALL {
            assert!(latency(op.family()) >= 1);
        }
    }
}
