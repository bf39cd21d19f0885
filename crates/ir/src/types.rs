//! Value types and runtime values.

use core::fmt;

/// The type of a register, memory cell, load or store.
///
/// The IR is deliberately small: every value is 8 bytes wide and is either an
/// integer, a double, or a pointer (a word address, represented as an `i64`
/// at run time). Types serve two purposes from the paper's evaluation:
///
/// 1. **Type-based alias analysis** (§5: "compiled at the O3 optimization
///    level with type-based alias analysis"): an `f64` access never aliases
///    an `i64` access. `Ptr` and `I64` are mutually aliasing (C-style
///    integer/pointer punning is allowed).
/// 2. **Latency selection** in the machine model: an integer load has a
///    minimal latency of 2 cycles (L1 hit) while a floating-point load has a
///    minimal latency of 9 cycles (L2 hit) on Itanium, which is why the
///    floating-point-heavy benchmarks gain the most from speculative
///    register promotion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 double.
    F64,
    /// Word address (interchangeable with `I64` at run time, distinct for
    /// readability and for alias-class seeding).
    Ptr,
}

impl Ty {
    /// Whether a load/store of `self` may alias one of `other` under
    /// type-based alias analysis.
    #[inline]
    pub fn tbaa_may_alias(self, other: Ty) -> bool {
        use Ty::*;
        match (self, other) {
            (F64, F64) => true,
            (F64, _) | (_, F64) => false,
            _ => true, // I64/Ptr freely alias each other
        }
    }

    /// Whether values of this type are floating point.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F64)
    }

    /// Textual name (also the parser keyword).
    pub fn name(self) -> &'static str {
        match self {
            Ty::I64 => "i64",
            Ty::F64 => "f64",
            Ty::Ptr => "ptr",
        }
    }

    /// All types.
    pub const ALL: [Ty; 3] = [Ty::I64, Ty::F64, Ty::Ptr];
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value: one 8-byte memory cell or register content.
///
/// The interpreter and the machine simulator share this representation.
/// `Nat` is the IA-64 "Not a Thing" token: the deferred-exception marker a
/// control-speculative load (`ld.s`) produces when it would have faulted;
/// `chk.s` detects it and branches to recovery (Figure 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer or pointer payload.
    I(i64),
    /// Floating-point payload.
    F(f64),
    /// IA-64 NaT: deferred exception from a speculative load.
    Nat,
}

impl Value {
    /// Zero of the given type.
    #[inline]
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::F64 => Value::F(0.0),
            _ => Value::I(0),
        }
    }

    /// Extracts an integer, treating `F` via truncation.
    ///
    /// # Panics
    /// Panics on `Nat` — consuming a NaT outside `chk.s` is a program error
    /// the interpreter surfaces eagerly.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
            Value::Nat => panic!("NaT consumed by non-check instruction"),
        }
    }

    /// Extracts a float, converting from `I` if necessary.
    ///
    /// # Panics
    /// Panics on `Nat`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
            Value::Nat => panic!("NaT consumed by non-check instruction"),
        }
    }

    /// Whether this is the NaT token.
    #[inline]
    pub fn is_nat(self) -> bool {
        matches!(self, Value::Nat)
    }

    /// The value as a cell of type `ty` holds it: an `i64` or `ptr` cell
    /// truncates a float, an `f64` cell converts an integer. Typed memory
    /// on a real target does the same, which keeps TBAA honest; both
    /// executors apply it to every load and store.
    #[inline]
    pub fn coerce(self, ty: Ty) -> Value {
        match (ty, self) {
            (Ty::F64, Value::I(x)) => Value::F(x as f64),
            (Ty::F64, v) => v,
            (_, Value::F(x)) => Value::I(x as i64),
            (_, v) => v,
        }
    }

    /// Bitwise equality used by the ALAT/value-equality checks: `NaN == NaN`
    /// holds (we compare bit patterns, like hardware does).
    #[inline]
    pub fn bits_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::I(a), Value::I(b)) => a == b,
            (Value::F(a), Value::F(b)) => a.to_bits() == b.to_bits(),
            (Value::Nat, Value::Nat) => true,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v:?}"),
            Value::Nat => write!(f, "NaT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbaa_separates_float_from_int() {
        assert!(!Ty::F64.tbaa_may_alias(Ty::I64));
        assert!(!Ty::I64.tbaa_may_alias(Ty::F64));
        assert!(Ty::F64.tbaa_may_alias(Ty::F64));
        assert!(Ty::I64.tbaa_may_alias(Ty::Ptr));
        assert!(Ty::Ptr.tbaa_may_alias(Ty::I64));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::I(7).as_f64(), 7.0);
        assert_eq!(Value::F(3.9).as_i64(), 3);
        assert_eq!(Value::zero(Ty::F64), Value::F(0.0));
        assert_eq!(Value::zero(Ty::Ptr), Value::I(0));
    }

    #[test]
    fn bits_eq_handles_nan() {
        let nan = Value::F(f64::NAN);
        assert!(nan.bits_eq(nan));
        assert!(!Value::I(0).bits_eq(Value::F(0.0)));
        assert!(Value::Nat.bits_eq(Value::Nat));
    }

    #[test]
    #[should_panic(expected = "NaT consumed")]
    fn nat_panics_on_use() {
        let _ = Value::Nat.as_i64();
    }
}
