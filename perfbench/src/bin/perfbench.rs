//! Untraced benchmark binary: end-to-end metrics only, system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
