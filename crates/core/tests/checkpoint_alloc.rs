//! A checkpoint header is checked against the length of the bytes that
//! follow it before the model it describes is built. A counting global
//! allocator measures what each decoder allocates for a short checkpoint
//! whose header claims a large model. This is its own test binary because
//! the allocator counts the whole process; it holds one test so that no
//! other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use deepseq_core::model::MODEL_MAGIC;
use deepseq_core::DeepSeq;
use deepseq_nn::{append_crc_trailer, Params, ParamsError};

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated while `f` runs, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

/// A CRC-valid `DSQM` whose header claims hidden dim `d` and whose
/// parameter blob is empty: 24 header bytes, a 16-byte `DSQP` and the
/// trailer, 44 bytes in all.
fn empty_dsqm(d: u32) -> Vec<u8> {
    let mut bytes = MODEL_MAGIC.to_vec();
    bytes.extend_from_slice(&2u16.to_le_bytes()); // version
    bytes.extend_from_slice(&d.to_le_bytes()); // hidden_dim
    bytes.extend_from_slice(&1u32.to_le_bytes()); // iterations
    bytes.extend_from_slice(&[2, 2]); // dual attention, custom scheme
    bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
    bytes.extend_from_slice(&Params::new().save_binary());
    append_crc_trailer(&mut bytes);
    bytes
}

#[test]
fn short_checkpoints_claiming_large_models_fail_before_allocating_them() {
    const LIMIT: usize = 1 << 20;
    // d = 1024 first: a decoder that builds the model before checking the
    // header would allocate about 92 MB here, and stops at this assert
    // before the d = 16384 case could ask for 24 GB.
    for d in [1024, 1 << 14] {
        let bytes = empty_dsqm(d);
        assert_eq!(bytes.len(), 44);
        let (allocated, result) = allocated_by(|| DeepSeq::from_binary_checkpoint(&bytes));
        let result = result.map(|model| *model.config());
        assert!(
            matches!(result, Err(ParamsError::Corrupt { .. })),
            "d={d}: {result:?}"
        );
        assert!(allocated < LIMIT, "d={d}: {allocated} bytes allocated");

        let text = format!(
            "deepseq-model v1 hidden={d} iters=1 agg=dual scheme=custom seed=0\n\
             deepseq-params v1\n"
        );
        let (allocated, result) = allocated_by(|| DeepSeq::from_text(&text));
        let result = result.map(|model| *model.config());
        assert!(
            matches!(result, Err(ParamsError::Corrupt { .. })),
            "d={d}: {result:?}"
        );
        assert!(allocated < LIMIT, "d={d}: {allocated} bytes allocated");
    }
}
