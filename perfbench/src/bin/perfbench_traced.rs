//! Traced benchmark binary: per-layer metrics, with the counting
//! allocator installed.

#[global_allocator]
static ALLOC: perfbench::procfs::CountingAlloc = perfbench::procfs::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
