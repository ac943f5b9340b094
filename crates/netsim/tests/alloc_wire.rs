//! Allocation-budget regression test for the zero-copy reliable send path
//! (DESIGN.md §2.15).
//!
//! A byte-counting `#[global_allocator]` (test-binary-only; integration
//! tests are separate binaries) pins the property the frame rope bought:
//! a steady-state reliable DATA send ships the payload *by reference* —
//! the wire message, the unacked retention map, and any retransmit all
//! share the sender's `Bytes` buffer. Framing may allocate O(1) small
//! header buffers per message, but never a payload-sized copy.
//!
//! The test sends a burst of large payloads through an *armed* (but
//! fault-free) plan, so the full reliable machinery runs — framing,
//! sequencing, retention, acks — and asserts the allocated-byte delta is
//! orders of magnitude below one-copy-per-message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_netsim::{Channel, Cluster, NetConfig, ReliableTransport, RetryConfig};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingBytes;

// SAFETY: defers entirely to `System`; the counter is a relaxed side effect.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingBytes = CountingBytes;

fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn reliable_send_makes_no_payload_copies() {
    const PAYLOAD: usize = 64 * 1024;
    const WARMUP: u64 = 20;
    const N: u64 = 200;

    // No fault plan: the reliable layer frames, sequences, retains, and
    // acks exactly as in a chaos run, but nothing is dropped — so
    // retransmit noise can't blur the measurement.
    let cluster = Cluster::start(2, NetConfig::instant());
    let sender = ReliableTransport::new(cluster.transport(0), "alloc", RetryConfig::default());
    let receiver = ReliableTransport::new(cluster.transport(1), "alloc", RetryConfig::default());

    sender.register_handler(Channel::APP, Box::new(|_| {}));
    static DELIVERED: AtomicUsize = AtomicUsize::new(0);
    receiver.register_handler(
        Channel::APP,
        Box::new(move |m| {
            assert_eq!(m.payload.len(), PAYLOAD);
            DELIVERED.fetch_add(1, Ordering::SeqCst);
        }),
    );

    // One payload buffer for the whole run: every send clones the `Bytes`
    // handle (a refcount bump), so any payload-sized allocation after the
    // warmup is a copy the zero-copy path should not have made.
    let payload = Bytes::from(vec![0xabu8; PAYLOAD]);

    let send_burst = |n: u64, base: u64| {
        for i in 0..n {
            sender.send(1, Channel::APP, base + i, payload.clone());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && (DELIVERED.load(Ordering::SeqCst) as u64) < base + n {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(DELIVERED.load(Ordering::SeqCst) as u64, base + n);
        // Drain acks too, so retention-map churn lands inside the window.
        assert!(sender.flush(Duration::from_secs(10)), "acks must drain");
    };

    // Warmup: retry-thread spawn, timing-wheel slot growth, map nodes,
    // lazy statics — the one-time costs the steady state should not pay.
    send_burst(WARMUP, 0);

    let before = allocated_bytes();
    send_burst(N, WARMUP);
    let delta = allocated_bytes() - before;

    // One copy per message would be ≥ N * 64 KiB = 12.8 MiB. The real
    // budget is header Bytes (~26 B), map nodes, and queue slots: comfort
    // margin of ~5 KiB per message still proves the payload went by
    // reference.
    let budget = N * 5 * 1024;
    assert!(
        delta < budget,
        "steady-state burst of {} x {}KiB sends allocated {} bytes (budget {}): \
         the payload is being copied on the send path",
        N,
        PAYLOAD / 1024,
        delta,
        budget
    );

    let stats = sender.stats();
    assert!(
        stats.payload_copies_avoided >= N,
        "every DATA frame should ship by reference: {:?}",
        stats
    );
    cluster.stop();
}
