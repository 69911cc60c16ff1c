//! Micro-benchmarks for the edge table (§4.1, §6.2): the
//! structure every barrier cold path and every SELECT closure touches.

use leak_pruning::{EdgeKey, EdgeTable, DEFAULT_SLOTS};
use lp_bench::micro::measure;
use lp_heap::ClassId;
use std::hint::black_box;

const TRIALS: usize = 40;
/// Table operations per trial.
const OPS: u64 = 10_000;

fn edge(src: u32, tgt: u32) -> EdgeKey {
    EdgeKey::new(ClassId::from_index(src), ClassId::from_index(tgt))
}

/// Times `OPS` calls of `op` per trial and prints the row `name`.
fn bench(name: &str, mut op: impl FnMut()) {
    measure(TRIALS, OPS, || (0..OPS).for_each(|_| op())).print(name);
}

fn main() {
    let table = EdgeTable::new(DEFAULT_SLOTS);
    table.note_stale_use(edge(1, 2), 3);
    bench("edge_table/note_stale_use_existing", || {
        table.note_stale_use(black_box(edge(1, 2)), black_box(4));
    });

    let table = EdgeTable::new(DEFAULT_SLOTS);
    for i in 0..512 {
        table.note_stale_use(edge(i, i + 1), 2);
    }
    bench("edge_table/max_stale_use_hit", || {
        black_box(table.max_stale_use(black_box(edge(77, 78))));
    });
    bench("edge_table/max_stale_use_miss", || {
        black_box(table.max_stale_use(black_box(edge(9999, 9999))));
    });

    let table = EdgeTable::new(DEFAULT_SLOTS);
    for i in 0..1024u32 {
        table.add_bytes(edge(i, i + 1), u64::from(i) * 13 + 1);
    }
    bench("edge_table/select_max_bytes_1k_edges", || {
        black_box(table.select_max_bytes());
    });
}
