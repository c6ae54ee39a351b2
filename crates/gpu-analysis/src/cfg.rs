//! Basic-block control-flow graph construction.
//!
//! Successor edges model the simulator's per-thread control flow: `BRA`/
//! `JMP` branch to their resolved target (plus fall-through when guarded —
//! a guard-failing thread just steps to the next instruction), `EXIT`,
//! `KILL`, `BPT`, and unimplemented opcodes terminate the thread, `BAR`
//! falls through after the rendezvous, and everything else falls through.
//! Executing past the last instruction raises a `PcOverrun` trap, so a
//! reachable fall-off-the-end path is a genuine kernel defect (reported by
//! the linter as a missing `EXIT`).
//!
//! Indirect branches (`BRX`/`JMX`) and call/return have no statically
//! enumerable successor set; kernels containing them build with
//! [`Cfg::precise`]` == false`, and consumers that need soundness (dead
//! fault pruning, path-sensitive lints) must skip such kernels.

use gpu_isa::{ExecFamily, Kernel};

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: u32,
    /// One past the last instruction index (exclusive).
    pub end: u32,
    /// Successor block indices, deduplicated.
    pub succs: Vec<usize>,
    /// Predecessor block indices, deduplicated.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// Instruction indices in the block.
    pub fn pcs(&self) -> std::ops::Range<u32> {
        self.start..self.end
    }
}

/// A kernel's control-flow graph. Block 0 is the entry block.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The basic blocks, ordered by start pc.
    pub blocks: Vec<BasicBlock>,
    /// `false` if the kernel contains indirect branches (`BRX`/`JMX`) or
    /// call/return, whose successors cannot be statically enumerated.
    /// Imprecise CFGs are unsound for pruning.
    pub precise: bool,
    /// Instruction indices from which execution can run past the end of
    /// the kernel (the simulator's `PcOverrun` trap).
    pub fall_off: Vec<u32>,
    block_of: Vec<usize>,
}

/// `true` for opcodes that end a basic block.
fn is_control(family: ExecFamily) -> bool {
    matches!(
        family,
        ExecFamily::Bra
            | ExecFamily::Brx
            | ExecFamily::Call
            | ExecFamily::Ret
            | ExecFamily::Exit
            | ExecFamily::Kill
            | ExecFamily::Bpt
            | ExecFamily::Unimplemented
    )
}

/// The statically known successor instruction indices of `pc`, together
/// with whether any edge was dropped because it cannot be enumerated
/// (indirect branch, return) — in-range indices only.
fn instr_successors(kernel: &Kernel, pc: u32) -> (Vec<u32>, bool) {
    let n = kernel.len() as u32;
    let instr = &kernel.instrs()[pc as usize];
    let fall = pc + 1;
    let guarded = !instr.guard.is_always();
    let mut succs = Vec::new();
    let mut imprecise = false;
    match instr.op.family() {
        ExecFamily::Bra => {
            succs.push(instr.target);
            if guarded {
                succs.push(fall);
            }
        }
        ExecFamily::Brx | ExecFamily::Ret => {
            imprecise = true;
            if guarded {
                succs.push(fall);
            }
        }
        ExecFamily::Call => {
            imprecise = true;
            if instr.target < n {
                succs.push(instr.target);
            }
            // The matching RET eventually resumes after the call site.
            succs.push(fall);
        }
        ExecFamily::Exit | ExecFamily::Kill | ExecFamily::Bpt | ExecFamily::Unimplemented => {
            if guarded {
                succs.push(fall);
            }
        }
        _ => succs.push(fall),
    }
    succs.retain(|s| *s < n);
    succs.dedup();
    (succs, imprecise)
}

impl Cfg {
    /// Build the CFG of a kernel.
    pub fn build(kernel: &Kernel) -> Cfg {
        let n = kernel.len();
        if n == 0 {
            return Cfg {
                blocks: Vec::new(),
                precise: true,
                fall_off: vec![0],
                block_of: Vec::new(),
            };
        }

        let mut precise = true;
        let mut fall_off = Vec::new();
        let mut succs_of = Vec::with_capacity(n);
        for pc in 0..n as u32 {
            let instr = &kernel.instrs()[pc as usize];
            let (succs, imprecise) = instr_successors(kernel, pc);
            precise &= !imprecise;
            // A fall-through edge to pc == len is a PcOverrun, not an edge.
            let family = instr.op.family();
            let falls = match family {
                ExecFamily::Exit
                | ExecFamily::Kill
                | ExecFamily::Bpt
                | ExecFamily::Unimplemented => !instr.guard.is_always() && pc as usize + 1 == n,
                ExecFamily::Bra => !instr.guard.is_always() && pc as usize + 1 == n,
                ExecFamily::Brx | ExecFamily::Ret | ExecFamily::Call => false,
                _ => pc as usize + 1 == n,
            };
            if falls {
                fall_off.push(pc);
            }
            succs_of.push(succs);
        }

        // Leaders: entry, branch targets, and instructions after control flow.
        let mut leader = vec![false; n];
        leader[0] = true;
        for pc in 0..n {
            if is_control(kernel.instrs()[pc].op.family()) {
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
                for s in &succs_of[pc] {
                    leader[*s as usize] = true;
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for pc in 0..n {
            block_of[pc] = blocks.len();
            let last = pc + 1 == n || leader[pc + 1];
            if last {
                blocks.push(BasicBlock {
                    start: start as u32,
                    end: (pc + 1) as u32,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = pc + 1;
            }
        }

        for b in 0..blocks.len() {
            let last_pc = blocks[b].end as usize - 1;
            let mut succs: Vec<usize> =
                succs_of[last_pc].iter().map(|s| block_of[*s as usize]).collect();
            succs.sort_unstable();
            succs.dedup();
            blocks[b].succs = succs.clone();
            for s in succs {
                blocks[s].preds.push(b);
            }
        }

        Cfg { blocks, precise, fall_off, block_of }
    }

    /// The block containing instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range for the kernel.
    pub fn block_of(&self, pc: u32) -> usize {
        self.block_of[pc as usize]
    }

    /// Block-level reachability from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Reverse postorder over blocks reachable from the entry.
    pub fn rpo(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.blocks.len());
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return order;
        }
        // Iterative postorder DFS.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        seen[0] = true;
        while let Some((b, i)) = stack.pop() {
            if i < self.blocks[b].succs.len() {
                stack.push((b, i + 1));
                let s = self.blocks[b].succs[i];
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
            }
        }
        order.reverse();
        order
    }

    /// Blocks whose execution leaves the kernel: a thread-terminating last
    /// instruction (`EXIT`, `KILL`, traps, unenumerable returns) or a
    /// fall-off-the-end path. These feed the virtual exit node of the
    /// post-dominator computation.
    pub fn exit_blocks(&self, kernel: &Kernel) -> Vec<usize> {
        let mut out = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            let last_pc = block.end - 1;
            let instr = &kernel.instrs()[last_pc as usize];
            let terminator = matches!(
                instr.op.family(),
                ExecFamily::Exit
                    | ExecFamily::Kill
                    | ExecFamily::Bpt
                    | ExecFamily::Unimplemented
                    | ExecFamily::Ret
                    | ExecFamily::Brx
            );
            if terminator || self.fall_off.contains(&last_pc) {
                out.push(b);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::asm::KernelBuilder;
    use gpu_isa::{CmpOp, PReg, Reg};

    /// if (R0 < 10) { R1 = R0 + 1 } else { R1 = 0 }; exit
    fn diamond() -> Kernel {
        let mut k = KernelBuilder::new("diamond");
        let (else_, join) = (k.new_label(), k.new_label());
        k.isetp(PReg(0), CmpOp::Lt, Reg(0), 10); // 0
        k.bra_ifnot(PReg(0), else_); // 1
        k.iaddi(Reg(1), Reg(0), 1); // 2
        k.bra(join); // 3
        k.bind(else_);
        k.movi(Reg(1), 0); // 4
        k.bind(join);
        k.exit(); // 5
        k.finish()
    }

    #[test]
    fn diamond_blocks_and_edges() {
        let kernel = diamond();
        let cfg = Cfg::build(&kernel);
        assert!(cfg.precise);
        assert!(cfg.fall_off.is_empty());
        // Blocks: [0..2) cond, [2..4) then, [4..5) else, [5..6) join.
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs, vec![1, 2]);
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert!(cfg.blocks[3].succs.is_empty());
        assert_eq!(cfg.blocks[3].preds, vec![1, 2]);
        assert_eq!(cfg.block_of(0), 0);
        assert_eq!(cfg.block_of(4), 2);
        assert!(cfg.reachable().iter().all(|r| *r));
        assert_eq!(cfg.rpo()[0], 0);
    }

    #[test]
    fn unreachable_code_after_unconditional_branch() {
        let mut k = KernelBuilder::new("dead");
        let end = k.new_label();
        k.bra(end); // 0
        k.movi(Reg(1), 7); // 1 — unreachable
        k.bind(end);
        k.exit(); // 2
        let cfg = Cfg::build(&k.finish());
        let reach = cfg.reachable();
        assert!(reach[cfg.block_of(0)]);
        assert!(!reach[cfg.block_of(1)]);
        assert!(reach[cfg.block_of(2)]);
    }

    #[test]
    fn missing_exit_is_a_fall_off() {
        let mut k = KernelBuilder::new("nofall");
        k.movi(Reg(1), 7);
        k.iaddi(Reg(1), Reg(1), 1);
        let cfg = Cfg::build(&k.finish());
        assert_eq!(cfg.fall_off, vec![1]);
    }

    #[test]
    fn guarded_exit_falls_through() {
        let mut k = KernelBuilder::new("gexit");
        k.push({
            let mut i = gpu_isa::Instr::new(gpu_isa::Opcode::EXIT);
            i.guard = gpu_isa::Guard::if_true(PReg(0));
            i
        }); // 0
        k.exit(); // 1
        let cfg = Cfg::build(&k.finish());
        assert_eq!(cfg.blocks[0].succs, vec![1], "guard-failing threads fall through");
    }

    #[test]
    fn loops_are_handled() {
        let mut k = KernelBuilder::new("loop");
        let top = k.new_label();
        k.movi(Reg(0), 0); // 0
        k.bind(top);
        k.iaddi(Reg(0), Reg(0), 1); // 1
        k.isetp(PReg(0), CmpOp::Lt, Reg(0), 10); // 2
        k.bra_if(PReg(0), top); // 3
        k.exit(); // 4
        let cfg = Cfg::build(&k.finish());
        let body = cfg.block_of(1);
        assert!(cfg.blocks[body].preds.contains(&cfg.block_of(0)));
        assert!(cfg.blocks[body].preds.contains(&body), "back edge");
        assert!(cfg.reachable().iter().all(|r| *r));
    }

    #[test]
    fn empty_kernel_falls_off_immediately() {
        let kernel = Kernel::new("empty", vec![], 0).expect("kernel");
        let cfg = Cfg::build(&kernel);
        assert!(cfg.blocks.is_empty());
        assert_eq!(cfg.fall_off, vec![0]);
    }
}
