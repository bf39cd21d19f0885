//! The word memory both executors run on; see [`Memory`].

use crate::function::Module;
use crate::types::Value;

/// Words reserved for the stack region.
pub const STACK_WORDS: i64 = 1 << 20;

/// Hard cap on memory (words) to catch wild pointers.
pub const MEM_CAP: i64 = 1 << 28;

/// The word memory of one execution, shared by the reference interpreter
/// (`specframe-profile`) and the machine simulator (`specframe-machine`).
/// Both lay out the address space the same way, so a pointer means the
/// same cell in each and profiled LOCs agree between them:
///
/// ```text
/// [0, 16)                        unmapped (null page)
/// [16, G)                        globals, laid out by `Module::global_layout`
/// [G, G + STACK_WORDS)           stack; frames push slot storage and pop on return
/// [G + STACK_WORDS, heap top)    heap; `alloc` bumps, nothing frees
/// ```
///
/// `G` is the first address past the globals. An access is valid from
/// [`Module::GLOBAL_BASE`] up to the heap top, and never at or past
/// [`MEM_CAP`]. A cell that was never written reads 0, and a popped
/// frame's cells keep their stale values until a later frame pushes over
/// them.
///
/// The null page, globals and stack are stored in one vector, the heap in
/// another, and each grows only to its highest written address. A program
/// that allocates therefore never pays for the stack words it leaves empty
/// between the two.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Cells `[0, low.len())`: null page, globals and stack.
    low: Vec<Value>,
    /// Cells `[heap_base, heap_base + heap.len())`.
    heap: Vec<Value>,
    stack_top: i64,
    /// The end of the stack region and the base of the first heap object.
    heap_base: i64,
    heap_top: i64,
}

impl Memory {
    /// An empty memory whose globals end at `globals_end`: the stack
    /// starts there and the heap [`STACK_WORDS`] later.
    pub fn new(globals_end: i64) -> Memory {
        let heap_base = globals_end + STACK_WORDS;
        Memory {
            low: Vec::new(),
            heap: Vec::new(),
            stack_top: globals_end,
            heap_base,
            heap_top: heap_base,
        }
    }

    /// Whether a non-speculative access to `addr` is valid.
    #[inline]
    pub fn mapped(&self, addr: i64) -> bool {
        addr >= Module::GLOBAL_BASE && addr < self.heap_top && addr < MEM_CAP
    }

    /// The value of the cell at `addr`; 0 if it was never written.
    #[inline]
    pub fn read(&self, addr: i64) -> Value {
        let cell = if addr < self.heap_base {
            self.low.get(addr as usize)
        } else {
            self.heap.get((addr - self.heap_base) as usize)
        };
        cell.copied().unwrap_or(Value::I(0))
    }

    /// Writes the cell at `addr`, which the caller has checked is
    /// [`Memory::mapped`].
    #[inline]
    pub fn write(&mut self, addr: i64, v: Value) {
        let (cells, i) = if addr < self.heap_base {
            (&mut self.low, addr as usize)
        } else {
            (&mut self.heap, (addr - self.heap_base) as usize)
        };
        if i >= cells.len() {
            cells.resize(i + 1, Value::I(0));
        }
        cells[i] = v;
    }

    /// The first free stack address: a frame records it before pushing its
    /// slots and returns to it with [`Memory::pop_to`].
    pub fn stack_top(&self) -> i64 {
        self.stack_top
    }

    /// Pushes `words` stack cells, each set to `fill`, and returns their
    /// base; `None` when the stack region is exhausted.
    pub fn push(&mut self, words: u32, fill: Value) -> Option<i64> {
        let base = self.stack_top;
        let end = base + i64::from(words);
        if end > self.heap_base {
            return None;
        }
        for a in base..end {
            self.write(a, fill);
        }
        self.stack_top = end;
        Some(base)
    }

    /// Pops the stack back to `top`. The popped cells keep their values.
    pub fn pop_to(&mut self, top: i64) {
        self.stack_top = top;
    }

    /// The first address past the last heap object.
    pub fn heap_top(&self) -> i64 {
        self.heap_top
    }

    /// Bumps the heap by `words` (negative counts as 0) and returns the new
    /// object's base; `Err(end)` when it would end past [`MEM_CAP`].
    pub fn alloc(&mut self, words: i64) -> Result<i64, i64> {
        let base = self.heap_top;
        let end = base + words.max(0);
        if end > MEM_CAP {
            return Err(end);
        }
        self.heap_top = end;
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_store_only_what_was_written() {
        let mut mem = Memory::new(20);
        assert!(!mem.mapped(Module::GLOBAL_BASE - 1), "null page");
        assert!(mem.mapped(19) && mem.mapped(20 + STACK_WORDS - 1));
        assert!(!mem.mapped(20 + STACK_WORDS), "no heap object yet");
        mem.write(16, Value::I(7));
        let obj = mem.alloc(4).unwrap();
        assert_eq!(obj, 20 + STACK_WORDS);
        assert_eq!(mem.alloc(-3), Ok(obj + 4), "negative sizes count as 0");
        mem.write(obj + 3, Value::F(1.5));
        assert_eq!(mem.read(16), Value::I(7));
        assert_eq!(mem.read(obj + 3), Value::F(1.5));
        assert_eq!((mem.read(obj), mem.read(100)), (Value::I(0), Value::I(0)));
        assert!(!mem.mapped(obj + 4), "past the heap top");
        assert_eq!(mem.low.len(), 17, "the empty stack is not stored");
        assert_eq!(mem.heap.len(), 4);
    }

    #[test]
    fn stack_push_fills_and_pop_keeps_stale_cells() {
        let mut mem = Memory::new(16);
        let mark = mem.stack_top();
        let slot = mem.push(2, Value::F(0.0)).unwrap();
        assert_eq!(mem.read(slot + 1), Value::F(0.0));
        mem.write(slot, Value::I(9));
        mem.pop_to(mark);
        assert_eq!(mem.read(slot), Value::I(9), "popped cells keep their value");
        assert_eq!(mem.push(2, Value::I(0)), Some(slot));
        assert_eq!(mem.read(slot), Value::I(0), "a new frame is filled");
        let room = (STACK_WORDS - 2) as u32;
        assert_eq!(mem.push(room + 1, Value::I(0)), None);
        assert_eq!(mem.push(room, Value::I(0)), Some(slot + 2));
    }
}
