//! Host-side buffer management (the `clCreateBuffer` / `clEnqueueRead…`
//! corner of the OpenCL host API).

use grover_ir::Scalar;

use crate::val::Val;
use crate::ExecError;

/// Handle to a device buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Buffer(pub(crate) u32);

/// Typed buffer storage.
#[derive(Clone, Debug)]
pub enum BufferData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
}

impl BufferData {
    /// Element scalar kind.
    pub fn scalar(&self) -> Scalar {
        match self {
            BufferData::F32(_) => Scalar::F32,
            BufferData::I32(_) => Scalar::I32,
            BufferData::I64(_) => Scalar::I64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::F32(v) => v.len(),
            BufferData::I32(v) => v.len(),
            BufferData::I64(v) => v.len(),
        }
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.scalar().size_bytes()
    }
}

/// An execution context owning device buffers, with a flat device address
/// layout used by the memory trace.
#[derive(Clone, Debug, Default)]
pub struct Context {
    buffers: Vec<BufferData>,
    bases: Vec<u64>,
    next_base: u64,
}

const FIRST_BASE: u64 = 0x10_000;
const ALIGN: u64 = 4096;

impl Context {
    /// An empty context with no buffers.
    pub fn new() -> Context {
        Context {
            buffers: Vec::new(),
            bases: Vec::new(),
            next_base: FIRST_BASE,
        }
    }

    fn push(&mut self, data: BufferData) -> Buffer {
        let size = data.size_bytes();
        let base = self.next_base;
        self.next_base = (base + size).div_ceil(ALIGN) * ALIGN;
        self.bases.push(base);
        self.buffers.push(data);
        Buffer(self.buffers.len() as u32 - 1)
    }

    /// Create an `f32` buffer initialised from `data`.
    pub fn buffer_f32(&mut self, data: &[f32]) -> Buffer {
        self.push(BufferData::F32(data.to_vec()))
    }

    /// Create an `i32` buffer initialised from `data`.
    pub fn buffer_i32(&mut self, data: &[i32]) -> Buffer {
        self.push(BufferData::I32(data.to_vec()))
    }

    /// Create an `i64` buffer initialised from `data`.
    pub fn buffer_i64(&mut self, data: &[i64]) -> Buffer {
        self.push(BufferData::I64(data.to_vec()))
    }

    /// Create a zero-filled `f32` buffer.
    pub fn zeros_f32(&mut self, len: usize) -> Buffer {
        self.push(BufferData::F32(vec![0.0; len]))
    }

    /// Create a zero-filled `i32` buffer.
    pub fn zeros_i32(&mut self, len: usize) -> Buffer {
        self.push(BufferData::I32(vec![0; len]))
    }

    /// Read back an `f32` buffer (panics on kind mismatch).
    ///
    /// The panic is the documented contract of this host-side convenience:
    /// passing the wrong handle is a programming error in the *caller*,
    /// not a recoverable kernel-execution failure. Use [`Context::try_read_f32`]
    /// where a `None` is preferable.
    pub fn read_f32(&self, b: Buffer) -> &[f32] {
        match &self.buffers[b.0 as usize] {
            BufferData::F32(v) => v,
            other => panic!("buffer is {:?}, not f32", other.scalar()),
        }
    }

    /// Read back an `i32` buffer (panics on kind mismatch; see
    /// [`Context::read_f32`] for the rationale).
    pub fn read_i32(&self, b: Buffer) -> &[i32] {
        match &self.buffers[b.0 as usize] {
            BufferData::I32(v) => v,
            other => panic!("buffer is {:?}, not i32", other.scalar()),
        }
    }

    /// Read back an `f32` buffer, or `None` on kind mismatch.
    pub fn try_read_f32(&self, b: Buffer) -> Option<&[f32]> {
        match self.buffers.get(b.0 as usize)? {
            BufferData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Read back an `i32` buffer, or `None` on kind mismatch.
    pub fn try_read_i32(&self, b: Buffer) -> Option<&[i32]> {
        match self.buffers.get(b.0 as usize)? {
            BufferData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Every buffer in creation order (index `i` is the storage of the
    /// `i`-th created [`Buffer`]). This is what the tuner's
    /// differential-output guard bit-compares across two runs.
    pub fn buffers(&self) -> &[BufferData] {
        &self.buffers
    }

    /// Raw typed storage of a buffer.
    pub fn data(&self, b: Buffer) -> &BufferData {
        &self.buffers[b.0 as usize]
    }

    /// Device base address of a buffer (trace address space).
    pub fn base_addr(&self, b: Buffer) -> u64 {
        self.bases[b.0 as usize]
    }

    /// Number of buffers created in this context.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// A [`GlobalMem`] view over every buffer, for the launch engine. The
    /// view borrows the context mutably for its whole lifetime, so no
    /// buffer can be created, read back or resized while a launch is in
    /// flight.
    pub(crate) fn global_mem(&mut self) -> GlobalMem<'_> {
        let bufs = self
            .buffers
            .iter_mut()
            .map(|d| match d {
                BufferData::F32(v) => RawBuf::F32(v.as_mut_ptr(), v.len()),
                BufferData::I32(v) => RawBuf::I32(v.as_mut_ptr(), v.len()),
                BufferData::I64(v) => RawBuf::I64(v.as_mut_ptr(), v.len()),
            })
            .collect();
        GlobalMem {
            bufs,
            bases: self.bases.clone(),
            _ctx: std::marker::PhantomData,
        }
    }

    pub(crate) fn scalar_of(&self, b: Buffer) -> Scalar {
        self.buffers[b.0 as usize].scalar()
    }
}

/// Raw typed pointer to one buffer's storage.
enum RawBuf {
    F32(*mut f32, usize),
    I32(*mut i32, usize),
    I64(*mut i64, usize),
}

impl RawBuf {
    fn scalar(&self) -> Scalar {
        match self {
            RawBuf::F32(..) => Scalar::F32,
            RawBuf::I32(..) => Scalar::I32,
            RawBuf::I64(..) => Scalar::I64,
        }
    }

    fn len(&self) -> usize {
        match *self {
            RawBuf::F32(_, n) | RawBuf::I32(_, n) | RawBuf::I64(_, n) => n,
        }
    }
}

/// A view of a [`Context`]'s global buffers used by the NDRange engine for
/// the duration of one launch.
///
/// # Safety / OpenCL memory model
///
/// The view holds raw pointers so that the engine can load and store
/// through a shared `&LaunchCtx` while it also holds per-group state
/// mutably. It is neither `Send` nor `Sync`: it never leaves the launching
/// thread, and work-groups run one after another, so no two accesses
/// overlap. Every access is still bounds- and type-checked; the borrow on
/// the `Context` guarantees the storage itself cannot move or be freed
/// while a launch is in flight.
pub(crate) struct GlobalMem<'a> {
    bufs: Vec<RawBuf>,
    bases: Vec<u64>,
    _ctx: std::marker::PhantomData<&'a mut Context>,
}

impl GlobalMem<'_> {
    /// Device base address of a buffer (0 for an unknown id, matching the
    /// trace's historical behaviour).
    pub(crate) fn base(&self, buf: u32) -> u64 {
        self.bases.get(buf as usize).copied().unwrap_or(0)
    }

    /// Load `lanes` elements starting at byte `offset`.
    pub(crate) fn load(&self, buf: u32, offset: i64, lanes: u8) -> Result<Val, ExecError> {
        let data = &self.bufs[buf as usize];
        let esz = data.scalar().size_bytes() as i64;
        if offset < 0 || offset % esz != 0 {
            return Err(ExecError::BadAddress(offset));
        }
        let idx = (offset / esz) as usize;
        let n = lanes as usize;
        if idx + n > data.len() {
            return Err(ExecError::OutOfBounds {
                buffer: buf,
                index: idx + n - 1,
                len: data.len(),
            });
        }
        Ok(match *data {
            RawBuf::F32(p, _) => {
                if n == 1 {
                    Val::F32(unsafe { p.add(idx).read() })
                } else {
                    let mut a = [0.0f32; 4];
                    for (i, slot) in a[..n].iter_mut().enumerate() {
                        *slot = unsafe { p.add(idx + i).read() };
                    }
                    Val::VF32(a, lanes)
                }
            }
            RawBuf::I32(p, _) => {
                if n == 1 {
                    Val::I32(unsafe { p.add(idx).read() })
                } else {
                    let mut a = [0i32; 4];
                    for (i, slot) in a[..n].iter_mut().enumerate() {
                        *slot = unsafe { p.add(idx + i).read() };
                    }
                    Val::VI32(a, lanes)
                }
            }
            RawBuf::I64(p, _) => {
                if n == 1 {
                    Val::I64(unsafe { p.add(idx).read() })
                } else {
                    return Err(ExecError::Unsupported("vector i64 load".into()));
                }
            }
        })
    }

    /// Store a value at byte `offset`.
    pub(crate) fn store(&self, buf: u32, offset: i64, val: Val) -> Result<(), ExecError> {
        let data = &self.bufs[buf as usize];
        let esz = data.scalar().size_bytes() as i64;
        if offset < 0 || offset % esz != 0 {
            return Err(ExecError::BadAddress(offset));
        }
        let idx = (offset / esz) as usize;
        let n = val.lanes() as usize;
        if idx + n > data.len() {
            return Err(ExecError::OutOfBounds {
                buffer: buf,
                index: idx + n - 1,
                len: data.len(),
            });
        }
        match (data, val) {
            (&RawBuf::F32(p, _), Val::F32(x)) => unsafe { p.add(idx).write(x) },
            (&RawBuf::F32(p, _), Val::VF32(a, l)) => {
                for (i, &x) in a[..l as usize].iter().enumerate() {
                    unsafe { p.add(idx + i).write(x) }
                }
            }
            (&RawBuf::I32(p, _), Val::I32(x)) => unsafe { p.add(idx).write(x) },
            (&RawBuf::I32(p, _), Val::Bool(x)) => unsafe { p.add(idx).write(x as i32) },
            (&RawBuf::I32(p, _), Val::VI32(a, l)) => {
                for (i, &x) in a[..l as usize].iter().enumerate() {
                    unsafe { p.add(idx + i).write(x) }
                }
            }
            (&RawBuf::I64(p, _), Val::I64(x)) => unsafe { p.add(idx).write(x) },
            (d, v) => {
                return Err(ExecError::TypeMismatch(format!(
                    "store {:?} into {:?} buffer",
                    v.ty(),
                    d.scalar()
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_read() {
        let mut ctx = Context::new();
        let b = ctx.buffer_f32(&[1.0, 2.0, 3.0]);
        assert_eq!(ctx.read_f32(b), &[1.0, 2.0, 3.0]);
        let z = ctx.zeros_i32(4);
        assert_eq!(ctx.read_i32(z), &[0; 4]);
    }

    #[test]
    fn bases_are_disjoint_and_aligned() {
        let mut ctx = Context::new();
        let a = ctx.zeros_f32(1000);
        let b = ctx.zeros_f32(10);
        let (ba, bb) = (ctx.base_addr(a), ctx.base_addr(b));
        assert!(bb >= ba + 4000);
        assert_eq!(ba % 4096, 0);
        assert_eq!(bb % 4096, 0);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut ctx = Context::new();
        let b = ctx.zeros_f32(8);
        let mem = ctx.global_mem();
        mem.store(b.0, 8, Val::F32(7.0)).unwrap();
        assert_eq!(mem.load(b.0, 8, 1).unwrap(), Val::F32(7.0));
        drop(mem);
        assert_eq!(ctx.read_f32(b)[2], 7.0);
    }

    #[test]
    fn vector_roundtrip() {
        let mut ctx = Context::new();
        let b = ctx.zeros_f32(8);
        let mem = ctx.global_mem();
        mem.store(b.0, 16, Val::VF32([1.0, 2.0, 3.0, 4.0], 4))
            .unwrap();
        assert_eq!(
            mem.load(b.0, 16, 4).unwrap(),
            Val::VF32([1.0, 2.0, 3.0, 4.0], 4)
        );
    }

    #[test]
    fn bounds_checked() {
        let mut ctx = Context::new();
        let b = ctx.zeros_f32(2);
        let mem = ctx.global_mem();
        assert!(matches!(
            mem.load(b.0, 8, 1),
            Err(ExecError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.store(b.0, -4, Val::F32(0.0)),
            Err(ExecError::BadAddress(_))
        ));
        assert!(matches!(mem.load(b.0, 2, 1), Err(ExecError::BadAddress(_))));
    }

    #[test]
    fn type_checked_store() {
        let mut ctx = Context::new();
        let b = ctx.zeros_f32(2);
        let mem = ctx.global_mem();
        assert!(matches!(
            mem.store(b.0, 0, Val::I32(1)),
            Err(ExecError::TypeMismatch(_))
        ));
    }
}
