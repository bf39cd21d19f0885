//! The optimizer's peak heap. A compile holds each function once: the
//! worker that owns a function replays its cache entry or compiles it, and
//! either result replaces the input function, so neither a warm compile
//! (decoded entries) nor a cold one (dominator trees, frontiers, loop
//! nests) holds a second copy of the module. A counting global allocator
//! measures the live heap; this binary holds one test, so nothing else
//! allocates while it measures.

use specframe::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
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

/// Live heap sizes of one compile, in bytes above what was live before
/// its input was parsed.
struct Measured {
    input: usize,
    output: usize,
    peak: usize,
}

/// Parses `src` and compiles the module under `req`, measuring the parsed
/// input, the compiled output and the peak between them.
fn measure(src: &str, req: &CompileRequest) -> Measured {
    let base = LIVE.load(Relaxed);
    let module = parse_module(src).expect("the mega module parses");
    let input = LIVE.load(Relaxed) - base;
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let out = compile_module(module, req).expect("the mega module compiles");
    let peak = PEAK.load(Relaxed) - base;
    let CompileOutput { module, .. } = out;
    let output = LIVE.load(Relaxed) - base;
    assert_eq!(module.funcs.len(), 1000);
    Measured {
        input,
        output,
        peak,
    }
}

fn request(cache_dir: Option<&Path>) -> CompileRequest {
    CompileRequest {
        spec: SpecKind::Heuristic,
        control: ControlKind::Static,
        jobs: 1,
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..Default::default()
    }
}

#[test]
fn a_compile_holds_each_function_once() {
    let src = mega_source(7, 1000);
    let dir = std::env::temp_dir().join(format!("specframe-compile-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (uncached, cached) = (request(None), request(Some(&dir)));

    let cold = measure(&src, &uncached);
    measure(&src, &cached); // fills the cache
    let warm = measure(&src, &cached);
    std::fs::remove_dir_all(&dir).expect("remove the cache dir");

    for (what, m) in [("an uncached", cold), ("a warm", warm)] {
        let larger = m.input.max(m.output);
        assert!(
            m.peak * 2 <= larger * 3,
            "{what} compile peaked at {} live bytes, more than 1.5x the larger of its \
             {}-byte input and {}-byte output",
            m.peak,
            m.input,
            m.output
        );
    }
}
