//! SSA construction for structured control flow, following Braun et al.,
//! "Simple and Efficient Construction of Static Single Assignment Form"
//! (CC 2013): local value numbering per block, on-demand phi insertion with
//! *incomplete* phis in unsealed blocks, and trivial-phi elimination.

use std::collections::{HashMap, HashSet};

use grover_ir::{BlockId, Function, Inst, Type, ValueId};

/// A mutable source-level variable being converted to SSA.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarId(pub u32);

/// Error raised when a variable is read before any write reaches it.
#[derive(Debug, Clone)]
pub struct UndefRead(pub VarId);

/// Braun-style SSA builder, layered over [`grover_ir::Function`].
#[derive(Default)]
pub struct SsaBuilder {
    defs: HashMap<(VarId, BlockId), ValueId>,
    incomplete: HashMap<BlockId, Vec<(VarId, ValueId)>>,
    sealed: HashSet<BlockId>,
    var_types: Vec<Type>,
    /// phi value -> var it merges (needed when completing incomplete phis).
    phi_vars: HashMap<ValueId, VarId>,
}

impl SsaBuilder {
    /// A fresh builder with no variables or sealed blocks.
    pub fn new() -> SsaBuilder {
        SsaBuilder::default()
    }

    /// Register a new variable of an IR type.
    pub fn new_var(&mut self, ty: Type) -> VarId {
        self.var_types.push(ty);
        VarId(self.var_types.len() as u32 - 1)
    }

    /// The IR type a variable was registered with.
    pub fn var_type(&self, v: VarId) -> Type {
        self.var_types[v.0 as usize]
    }

    /// Record that `var` now holds `value` at the end of `block`.
    pub fn write(&mut self, var: VarId, block: BlockId, value: ValueId) {
        self.defs.insert((var, block), value);
    }

    /// Current value of `var` when control reaches the end of `block`.
    pub fn read(
        &mut self,
        f: &mut Function,
        var: VarId,
        block: BlockId,
    ) -> Result<ValueId, UndefRead> {
        if let Some(&v) = self.defs.get(&(var, block)) {
            return Ok(v);
        }
        self.read_recursive(f, var, block)
    }

    fn read_recursive(
        &mut self,
        f: &mut Function,
        var: VarId,
        block: BlockId,
    ) -> Result<ValueId, UndefRead> {
        let val = if !self.sealed.contains(&block) {
            // Unknown predecessors: place an operandless phi to fill later.
            let phi = f.insert_inst(
                block,
                0,
                Inst::Phi {
                    incoming: Vec::new(),
                },
                self.var_type(var),
            );
            self.incomplete.entry(block).or_default().push((var, phi));
            self.phi_vars.insert(phi, var);
            phi
        } else {
            let preds = preds_of(f, block);
            match preds.len() {
                0 => return Err(UndefRead(var)),
                1 => self.read(f, var, preds[0])?,
                _ => {
                    // Break potential cycles: write the phi before filling it.
                    let phi = f.insert_inst(
                        block,
                        0,
                        Inst::Phi {
                            incoming: Vec::new(),
                        },
                        self.var_type(var),
                    );
                    self.phi_vars.insert(phi, var);
                    self.write(var, block, phi);
                    self.add_phi_operands(f, var, phi, block)?
                }
            }
        };
        self.write(var, block, val);
        Ok(val)
    }

    fn add_phi_operands(
        &mut self,
        f: &mut Function,
        var: VarId,
        phi: ValueId,
        block: BlockId,
    ) -> Result<ValueId, UndefRead> {
        let preds = preds_of(f, block);
        let mut incoming = Vec::with_capacity(preds.len());
        for p in preds {
            let v = self.read(f, var, p)?;
            incoming.push((p, v));
        }
        if let Some(Inst::Phi { incoming: slot }) = f.inst_mut(phi) {
            *slot = incoming;
        }
        Ok(self.try_remove_trivial_phi(f, phi))
    }

    /// If the phi merges only one distinct value (besides itself), replace it.
    fn try_remove_trivial_phi(&mut self, f: &mut Function, phi: ValueId) -> ValueId {
        let Some(Inst::Phi { incoming }) = f.inst(phi) else {
            return phi;
        };
        let mut same: Option<ValueId> = None;
        for &(_, v) in incoming {
            if v == phi || Some(v) == same {
                continue;
            }
            if same.is_some() {
                return phi; // merges at least two values: not trivial
            }
            same = Some(v);
        }
        let same = match same {
            Some(s) => s,
            None => return phi, // unreachable or self-referential only
        };
        // Collect phi users before rewriting.
        let users: Vec<ValueId> = f
            .uses_of(phi)
            .into_iter()
            .filter(|&u| u != phi && matches!(f.inst(u), Some(Inst::Phi { .. })))
            .collect();
        f.replace_all_uses(phi, same);
        f.remove_inst(phi);
        // Any def-map entry pointing at the removed phi must be redirected.
        for v in self.defs.values_mut() {
            if *v == phi {
                *v = same;
            }
        }
        // Removing this phi may make its phi users trivial in turn.
        for u in users {
            self.try_remove_trivial_phi(f, u);
        }
        same
    }

    /// Declare that all predecessors of `block` are now known.
    pub fn seal(&mut self, f: &mut Function, block: BlockId) -> Result<(), UndefRead> {
        if !self.sealed.insert(block) {
            return Ok(());
        }
        if let Some(pending) = self.incomplete.remove(&block) {
            for (var, phi) in pending {
                self.add_phi_operands(f, var, phi, block)?;
            }
        }
        Ok(())
    }

    /// The phi nodes created during construction and the variable each one
    /// merges — used to give phis their source-level names.
    pub fn phi_vars(&self) -> impl Iterator<Item = (ValueId, VarId)> + '_ {
        self.phi_vars.iter().map(|(&p, &v)| (p, v))
    }
}

fn preds_of(f: &Function, block: BlockId) -> Vec<BlockId> {
    f.predecessors()[block.index()].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grover_ir::{Builder, CmpPred};

    #[test]
    fn straight_line_no_phi() {
        let mut f = Function::new("k", vec![]);
        let mut ssa = SsaBuilder::new();
        let e = f.entry;
        ssa.seal(&mut f, e).unwrap();
        let x = ssa.new_var(Type::I32);
        let c = f.const_i32(7);
        ssa.write(x, e, c);
        assert_eq!(ssa.read(&mut f, x, e).unwrap(), c);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn diamond_inserts_phi() {
        let mut f = Function::new("k", vec![]);
        let t = f.add_block("t");
        let el = f.add_block("e");
        let j = f.add_block("j");
        let mut ssa = SsaBuilder::new();
        let e = f.entry;
        ssa.seal(&mut f, e).unwrap();
        let x = ssa.new_var(Type::I32);

        let mut b = Builder::at_entry(&mut f);
        let cond = b.bool(true);
        b.cond_br(cond, t, el);
        ssa.seal(&mut f, t).unwrap();
        ssa.seal(&mut f, el).unwrap();

        let one = f.const_i32(1);
        let two = f.const_i32(2);
        ssa.write(x, t, one);
        ssa.write(x, el, two);
        Builder::new(&mut f, t).br(j);
        Builder::new(&mut f, el).br(j);
        ssa.seal(&mut f, j).unwrap();
        let merged = ssa.read(&mut f, x, j).unwrap();
        assert!(matches!(f.inst(merged), Some(Inst::Phi { .. })));
        let Some(Inst::Phi { incoming }) = f.inst(merged) else {
            panic!()
        };
        assert_eq!(incoming.len(), 2);
    }

    #[test]
    fn same_value_on_both_arms_is_trivial() {
        let mut f = Function::new("k", vec![]);
        let t = f.add_block("t");
        let el = f.add_block("e");
        let j = f.add_block("j");
        let mut ssa = SsaBuilder::new();
        let e = f.entry;
        ssa.seal(&mut f, e).unwrap();
        let x = ssa.new_var(Type::I32);
        let seven = f.const_i32(7);
        ssa.write(x, e, seven);

        let mut b = Builder::at_entry(&mut f);
        let cond = b.bool(true);
        b.cond_br(cond, t, el);
        ssa.seal(&mut f, t).unwrap();
        ssa.seal(&mut f, el).unwrap();
        Builder::new(&mut f, t).br(j);
        Builder::new(&mut f, el).br(j);
        ssa.seal(&mut f, j).unwrap();
        // Not written on either arm: reading in j must give the entry value,
        // with the transient phi removed as trivial.
        assert_eq!(ssa.read(&mut f, x, j).unwrap(), seven);
        let phis = f
            .iter_insts()
            .filter(|&(_, iv)| matches!(f.inst(iv), Some(Inst::Phi { .. })))
            .count();
        assert_eq!(phis, 0);
    }

    #[test]
    fn loop_phi_via_incomplete() {
        // i = 0; while (i < 3) i = i + 1; read i afterwards.
        let mut f = Function::new("k", vec![]);
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut ssa = SsaBuilder::new();
        let e = f.entry;
        ssa.seal(&mut f, e).unwrap();
        let i = ssa.new_var(Type::I32);
        let zero = f.const_i32(0);
        ssa.write(i, e, zero);
        Builder::at_entry(&mut f).br(header);

        // header is NOT sealed yet (latch unknown).
        let iv = ssa.read(&mut f, i, header).unwrap();
        let mut b = Builder::new(&mut f, header);
        let three = b.i32(3);
        let c = b.cmp(CmpPred::Slt, iv, three);
        b.cond_br(c, body, exit);
        ssa.seal(&mut f, body).unwrap();

        let iv_body = ssa.read(&mut f, i, body).unwrap();
        let mut b = Builder::new(&mut f, body);
        let one = b.i32(1);
        let next = b.add(iv_body, one);
        ssa.write(i, body, next);
        b.br(header);
        ssa.seal(&mut f, header).unwrap();
        ssa.seal(&mut f, exit).unwrap();
        Builder::new(&mut f, exit).ret();

        let after = ssa.read(&mut f, i, exit).unwrap();
        // The loop-carried variable must be a phi in the header.
        assert!(matches!(f.inst(after), Some(Inst::Phi { .. })));
        let Some(Inst::Phi { incoming }) = f.inst(after) else {
            panic!()
        };
        assert_eq!(incoming.len(), 2);
        assert!(grover_ir::verify(&f).is_ok(), "{:?}", grover_ir::verify(&f));
    }

    #[test]
    fn undef_read_is_error() {
        let mut f = Function::new("k", vec![]);
        let mut ssa = SsaBuilder::new();
        let e = f.entry;
        ssa.seal(&mut f, e).unwrap();
        let x = ssa.new_var(Type::I32);
        assert!(ssa.read(&mut f, x, e).is_err());
    }
}
