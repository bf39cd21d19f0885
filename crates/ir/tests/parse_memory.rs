//! The parser's peak heap. Parsing may hold little beyond the module it
//! builds: tokens are lexed on demand and each block's instructions move
//! into a vector of exact length. A counting global allocator measures the
//! live heap; this binary holds one test, so nothing else allocates while
//! it measures.

use specframe_ir::parse_module;
use specframe_workloads::mega_source;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, and the most seen since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, counting live bytes. `realloc` keeps its default,
/// which allocates the new block before it frees the old one, so a growing
/// vector counts both blocks, as a moving one holds both.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments and
// return its result unchanged; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn parsing_holds_little_beyond_the_module() {
    let src = mega_source(7, 1000);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let module = parse_module(&src).expect("the mega module parses");
    let peak = PEAK.load(Relaxed) - base;
    let kept = LIVE.load(Relaxed) - base;
    assert_eq!(module.funcs.len(), 1000);
    assert!(
        peak * 10 <= kept * 11,
        "parsing {} source bytes peaked at {peak} live bytes, more than 1.1x \
         the {kept} bytes of the module it built",
        src.len()
    );
}
