//! The counting allocator, alone in its process: every integration-test
//! file is its own binary, and with one test in it no other test thread
//! moves the counters.

use wgtt_benchmark::alloc;

const BLOCK: u64 = 8 << 20;
const SLACK: u64 = 1 << 20;

#[test]
fn allocator_counts_and_its_peak_resets() {
    alloc::reset_peak();
    let base = alloc::live_bytes();
    let calls = alloc::calls();
    let block = std::hint::black_box(vec![1u8; BLOCK as usize]);
    assert!(alloc::calls() > calls);
    assert!(alloc::live_bytes() >= base + BLOCK);
    drop(block);
    assert!(alloc::live_bytes() < base + SLACK);
    // The peak remembers the block after it is freed...
    assert!(alloc::peak_bytes() >= base + BLOCK);
    // ...until it is reset to the live size.
    alloc::reset_peak();
    assert!(alloc::peak_bytes() < base + SLACK);
    let small = std::hint::black_box(vec![1u8; (BLOCK / 4) as usize]);
    let peak = alloc::peak_bytes();
    assert!(peak >= base + BLOCK / 4 && peak < base + BLOCK / 4 + SLACK);
    drop(small);
}
