//! Positioned instruction builder with type inference.

use crate::function::Function;
use crate::types::{Scalar, Type};
use crate::value::{BarrierScope, BinOp, BlockId, Builtin, CastKind, CmpPred, Inst, ValueId};

/// Builds instructions at the end of a current block, inferring result types.
///
/// The builder borrows the function mutably; drop it (or call
/// [`Builder::finish`]) to get the function back.
pub struct Builder<'f> {
    f: &'f mut Function,
    block: BlockId,
}

impl<'f> Builder<'f> {
    /// Position a new builder at the end of `block`.
    pub fn new(f: &'f mut Function, block: BlockId) -> Builder<'f> {
        Builder { f, block }
    }

    /// Position at the entry block.
    pub fn at_entry(f: &'f mut Function) -> Builder<'f> {
        let e = f.entry;
        Builder::new(f, e)
    }

    /// Mutable access to the function being built.
    pub fn func(&mut self) -> &mut Function {
        self.f
    }

    /// The current insertion block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Move the insertion point to the end of another block.
    pub fn switch_to(&mut self, block: BlockId) {
        self.block = block;
    }

    /// Consume the builder, releasing the function borrow.
    pub fn finish(self) {}

    fn push(&mut self, inst: Inst, ty: Type) -> ValueId {
        self.f.append_inst(self.block, inst, ty)
    }

    // ---- constants ------------------------------------------------------

    /// Intern an `i32` constant.
    pub fn i32(&mut self, v: i32) -> ValueId {
        self.f.const_i32(v)
    }

    /// Intern an `i64` constant.
    pub fn i64(&mut self, v: i64) -> ValueId {
        self.f.const_i64(v)
    }

    /// Intern an `f32` constant.
    pub fn f32(&mut self, v: f32) -> ValueId {
        self.f.const_f32(v)
    }

    /// Intern a boolean constant.
    pub fn bool(&mut self, v: bool) -> ValueId {
        self.f.const_bool(v)
    }

    // ---- arithmetic -----------------------------------------------------

    /// Generic binary op; result type = lhs type.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.f.ty(lhs);
        self.push(Inst::Bin { op, lhs, rhs }, ty)
    }

    /// Integer addition.
    pub fn add(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Add, l, r)
    }

    /// Integer subtraction.
    pub fn sub(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Sub, l, r)
    }

    /// Integer multiplication.
    pub fn mul(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::Mul, l, r)
    }

    /// Float addition.
    pub fn fadd(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::FAdd, l, r)
    }

    /// Float subtraction.
    pub fn fsub(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::FSub, l, r)
    }

    /// Float multiplication.
    pub fn fmul(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::FMul, l, r)
    }

    /// Float division.
    pub fn fdiv(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.bin(BinOp::FDiv, l, r)
    }

    /// Comparison; result is `bool` (or a bool vector).
    pub fn cmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        let lanes = self.f.ty(lhs).lanes();
        let ty = if lanes == 1 {
            Type::BOOL
        } else {
            Type::Vector(Scalar::Bool, lanes)
        };
        self.push(Inst::Cmp { pred, lhs, rhs }, ty)
    }

    /// `cond ? t : e`.
    pub fn select(&mut self, cond: ValueId, t: ValueId, e: ValueId) -> ValueId {
        let ty = self.f.ty(t);
        self.push(
            Inst::Select {
                cond,
                then_val: t,
                else_val: e,
            },
            ty,
        )
    }

    /// Type conversion.
    pub fn cast(&mut self, kind: CastKind, value: ValueId, to: Type) -> ValueId {
        self.push(Inst::Cast { kind, value, to }, to)
    }

    // ---- calls ----------------------------------------------------------

    /// Call a builtin. Work-item queries return `i64` (OpenCL `size_t`);
    /// math builtins return the type of their first argument; `dot` returns
    /// the scalar kind of its vector arguments.
    pub fn call(&mut self, builtin: Builtin, args: Vec<ValueId>) -> ValueId {
        debug_assert_eq!(args.len(), builtin.arity(), "{} arity", builtin.name());
        let ty = if builtin.is_workitem_query() {
            Type::I64
        } else if builtin == Builtin::Dot {
            Type::Scalar(self.f.ty(args[0]).scalar_kind().expect("dot of vectors"))
        } else {
            self.f.ty(args[0])
        };
        self.push(Inst::Call { builtin, args }, ty)
    }

    /// `get_local_id(dim)` truncated to `i32` for convenient index math.
    pub fn local_id_i32(&mut self, dim: u32) -> ValueId {
        let d = self.i32(dim as i32);
        let v = self.call(Builtin::LocalId, vec![d]);
        self.cast(CastKind::Trunc, v, Type::I32)
    }

    /// `get_global_id(dim)` truncated to `i32`.
    pub fn global_id_i32(&mut self, dim: u32) -> ValueId {
        let d = self.i32(dim as i32);
        let v = self.call(Builtin::GlobalId, vec![d]);
        self.cast(CastKind::Trunc, v, Type::I32)
    }

    // ---- memory ---------------------------------------------------------

    /// `base + index` elements. Result keeps the pointer type of `base`.
    pub fn gep(&mut self, base: ValueId, index: ValueId) -> ValueId {
        let ty = self.f.ty(base);
        debug_assert!(ty.is_ptr(), "gep base must be a pointer");
        self.push(Inst::Gep { base, index }, ty)
    }

    /// Load through a pointer; result type is the pointee.
    pub fn load(&mut self, ptr: ValueId) -> ValueId {
        let ty = self.f.ty(ptr).pointee().expect("load from non-pointer");
        self.push(Inst::Load { ptr }, ty)
    }

    /// Store `value` through `ptr`.
    pub fn store(&mut self, ptr: ValueId, value: ValueId) -> ValueId {
        self.push(Inst::Store { ptr, value }, Type::Void)
    }

    /// Work-group barrier.
    pub fn barrier(&mut self, scope: BarrierScope) -> ValueId {
        self.push(Inst::Barrier { scope }, Type::Void)
    }

    // ---- vectors --------------------------------------------------------

    /// Extract lane `lane` of a vector.
    pub fn extract_lane(&mut self, vector: ValueId, lane: u8) -> ValueId {
        let vt = self.f.ty(vector);
        let ty = Type::Scalar(vt.scalar_kind().expect("extract from vector"));
        let lane = self.i32(lane as i32);
        self.push(Inst::ExtractLane { vector, lane }, ty)
    }

    /// Replace lane `lane` of a vector.
    pub fn insert_lane(&mut self, vector: ValueId, lane: u8, value: ValueId) -> ValueId {
        let ty = self.f.ty(vector);
        let lane = self.i32(lane as i32);
        self.push(
            Inst::InsertLane {
                vector,
                lane,
                value,
            },
            ty,
        )
    }

    /// Build a vector from scalar lanes.
    pub fn build_vector(&mut self, lanes: Vec<ValueId>) -> ValueId {
        let s = self
            .f
            .ty(lanes[0])
            .scalar_kind()
            .expect("vector of scalars");
        let ty = Type::Vector(s, lanes.len() as u8);
        self.push(Inst::BuildVector { lanes }, ty)
    }

    // ---- control flow -----------------------------------------------------

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) -> ValueId {
        self.push(Inst::Br { target }, Type::Void)
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: ValueId, then_blk: BlockId, else_blk: BlockId) -> ValueId {
        self.push(
            Inst::CondBr {
                cond,
                then_blk,
                else_blk,
            },
            Type::Void,
        )
    }

    /// Return from the kernel.
    pub fn ret(&mut self) -> ValueId {
        self.push(Inst::Ret, Type::Void)
    }

    /// Create an empty phi in the *current* block (it is appended; callers
    /// constructing loops should create phis first in a fresh block).
    pub fn phi(&mut self, ty: Type, incoming: Vec<(BlockId, ValueId)>) -> ValueId {
        self.push(Inst::Phi { incoming }, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;
    use crate::types::AddressSpace;
    use crate::value::Param;

    fn f() -> Function {
        Function::new(
            "k",
            vec![Param {
                name: "buf".into(),
                ty: Type::ptr_scalar(Scalar::F32, AddressSpace::Global),
            }],
        )
    }

    #[test]
    fn builds_typed_arithmetic() {
        let mut func = f();
        let mut b = Builder::at_entry(&mut func);
        let x = b.i32(3);
        let y = b.i32(4);
        let s = b.add(x, y);
        let c = b.cmp(CmpPred::Slt, s, y);
        b.ret();
        assert_eq!(func.ty(s), Type::I32);
        assert_eq!(func.ty(c), Type::BOOL);
    }

    #[test]
    fn load_infers_pointee() {
        let mut func = f();
        let buf = func.param_value(0);
        let mut b = Builder::at_entry(&mut func);
        let i = b.i32(5);
        let p = b.gep(buf, i);
        let v = b.load(p);
        b.ret();
        assert_eq!(
            func.ty(p),
            Type::ptr_scalar(Scalar::F32, AddressSpace::Global)
        );
        assert_eq!(func.ty(v), Type::F32);
    }

    #[test]
    fn workitem_queries_are_i64() {
        let mut func = f();
        let mut b = Builder::at_entry(&mut func);
        let d = b.i32(0);
        let gid = b.call(Builtin::GlobalId, vec![d]);
        let t = b.local_id_i32(1);
        b.ret();
        assert_eq!(func.ty(gid), Type::I64);
        assert_eq!(func.ty(t), Type::I32);
    }

    #[test]
    fn vector_ops_typed() {
        let mut func = f();
        let mut b = Builder::at_entry(&mut func);
        let x = b.f32(1.0);
        let y = b.f32(2.0);
        let v = b.build_vector(vec![x, y, x, y]);
        let e = b.extract_lane(v, 2);
        let v2 = b.insert_lane(v, 0, e);
        b.ret();
        assert_eq!(func.ty(v), Type::Vector(Scalar::F32, 4));
        assert_eq!(func.ty(e), Type::F32);
        assert_eq!(func.ty(v2), Type::Vector(Scalar::F32, 4));
    }

    #[test]
    fn dot_returns_scalar() {
        let mut func = f();
        let mut b = Builder::at_entry(&mut func);
        let x = b.f32(1.0);
        let v = b.build_vector(vec![x, x, x, x]);
        let d = b.call(Builtin::Dot, vec![v, v]);
        b.ret();
        assert_eq!(func.ty(d), Type::F32);
    }
}
