//! Runtime values for the IR interpreter.

use grover_ir::{AddressSpace, Scalar, Type};

/// A pointer value: a buffer plus a byte offset.
///
/// `buf` indexes the host [`crate::Context`]'s buffer table for
/// global/constant pointers, and the kernel's local-buffer table for
/// `__local` pointers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PtrVal {
    /// Address space the pointer refers to.
    pub space: AddressSpace,
    /// Buffer index (host table for global/constant, kernel table for local).
    pub buf: u32,
    /// Byte offset from the buffer base.
    pub offset: i64,
}

/// An interpreter value. Vectors support up to 4 lanes (enough for the
/// `float4` kernels of the benchmark suite; wider vectors are rejected at
/// kernel launch).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Val {
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// Float vector (`len` lanes, padded storage).
    VF32([f32; 4], u8),
    /// Integer vector.
    VI32([i32; 4], u8),
    /// Boolean vector.
    VBool([bool; 4], u8),
    /// Pointer.
    Ptr(PtrVal),
}

impl Val {
    /// The boolean, if this is one.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The `i32`, if this is one.
    pub fn as_i32(self) -> Option<i32> {
        match self {
            Val::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Any integer kind widened to i64.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Val::Bool(b) => Some(b as i64),
            Val::I32(v) => Some(v as i64),
            Val::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The `f32`, if this is one.
    pub fn as_f32(self) -> Option<f32> {
        match self {
            Val::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The pointer, if this is one.
    pub fn as_ptr(self) -> Option<PtrVal> {
        match self {
            Val::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// The IR type this value inhabits.
    pub fn ty(self) -> Type {
        match self {
            Val::Bool(_) => Type::BOOL,
            Val::I32(_) => Type::I32,
            Val::I64(_) => Type::I64,
            Val::F32(_) => Type::F32,
            Val::VF32(_, n) => Type::Vector(Scalar::F32, n),
            Val::VI32(_, n) => Type::Vector(Scalar::I32, n),
            Val::VBool(_, n) => Type::Vector(Scalar::Bool, n),
            Val::Ptr(p) => Type::ptr_scalar(Scalar::F32, p.space), // element kind erased
        }
    }

    /// Extract lane `i` of a vector (or the scalar itself for lane 0).
    pub fn lane(self, i: usize) -> Option<Val> {
        match self {
            Val::VF32(v, n) if i < n as usize => Some(Val::F32(v[i])),
            Val::VI32(v, n) if i < n as usize => Some(Val::I32(v[i])),
            Val::VBool(v, n) if i < n as usize => Some(Val::Bool(v[i])),
            s if i == 0 => Some(s),
            _ => None,
        }
    }

    /// Replace lane `i` of a vector.
    pub fn with_lane(self, i: usize, v: Val) -> Option<Val> {
        match (self, v) {
            (Val::VF32(mut a, n), Val::F32(x)) if i < n as usize => {
                a[i] = x;
                Some(Val::VF32(a, n))
            }
            (Val::VI32(mut a, n), Val::I32(x)) if i < n as usize => {
                a[i] = x;
                Some(Val::VI32(a, n))
            }
            (Val::VBool(mut a, n), Val::Bool(x)) if i < n as usize => {
                a[i] = x;
                Some(Val::VBool(a, n))
            }
            _ => None,
        }
    }

    /// Number of lanes (1 for scalars).
    pub fn lanes(self) -> u8 {
        match self {
            Val::VF32(_, n) | Val::VI32(_, n) | Val::VBool(_, n) => n,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Val::I32(5).as_i32(), Some(5));
        assert_eq!(Val::I32(5).as_int(), Some(5));
        assert_eq!(Val::Bool(true).as_int(), Some(1));
        assert_eq!(Val::F32(1.5).as_f32(), Some(1.5));
        assert_eq!(Val::F32(1.5).as_i32(), None);
    }

    #[test]
    fn lane_ops() {
        let v = Val::VF32([1.0, 2.0, 3.0, 4.0], 4);
        assert_eq!(v.lane(2), Some(Val::F32(3.0)));
        assert_eq!(v.lane(4), None);
        let v2 = v.with_lane(0, Val::F32(9.0)).unwrap();
        assert_eq!(v2.lane(0), Some(Val::F32(9.0)));
        assert_eq!(v.lanes(), 4);
        assert_eq!(Val::I32(1).lanes(), 1);
        assert_eq!(Val::I32(7).lane(0), Some(Val::I32(7)));
    }

    #[test]
    fn type_mapping() {
        assert_eq!(Val::VF32([0.0; 4], 4).ty(), Type::Vector(Scalar::F32, 4));
        assert_eq!(Val::I64(1).ty(), Type::I64);
    }
}
